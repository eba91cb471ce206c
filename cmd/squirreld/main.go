// Command squirreld is the Squirrel control-plane daemon: it owns a
// deployment (corpus, cluster, cVolumes) and serves the versioned
// wireproto protocol over TCP, so squirrelctl — and anything else that
// links internal/wireclient — drives registrations, boots, and
// lifecycle operations across a real socket instead of in-process
// calls.
//
// Usage:
//
//	squirreld                                  # listen on 127.0.0.1:7677
//	squirreld -addr :7677 -images 32 -nodes 16
//	squirreld -peers -traced                   # peer exchange + telemetry on
//	squirreld -index gossip                    # decentralized peer index, rounds on a ticker
//	squirreld -traced -metrics-addr :9090      # live /metrics + /telemetry HTTP surface
//	squirreld -version
//
// SIGTERM/SIGINT trigger graceful shutdown: the listener closes, no
// new requests are read, in-flight operations (boots included) run to
// completion and flush their responses, then the daemon exits. A
// second signal — or the drain timeout — forces it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/daemon"
	"repro/internal/version"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7677", "TCP listen address")
		nImages     = flag.Int("images", 16, "corpus size (images the deployment can register)")
		nNodes      = flag.Int("nodes", 8, "compute nodes")
		peers       = flag.Bool("peers", false, "enable the peer block exchange (with circuit breakers)")
		index       = flag.String("index", "", "content-index implementation: central (default) or gossip (decentralized TTL-lease directory; implies -peers)")
		gossipEvery = flag.Duration("gossip-interval", 2*time.Second, "wall-clock gossip round interval when -index gossip; a lease lives 15 rounds, and 0 runs no rounds, so nothing expires")
		traced      = flag.Bool("traced", false, "enable span tracing and unified telemetry")
		obsRing     = flag.Int("obs-ring", 0, "completed-operation trace ring size (default obs.DefaultRingSize; needs -traced)")
		metricsAddr = flag.String("metrics-addr", "", "serve live telemetry over HTTP at this address (/metrics Prometheus, /telemetry JSON; needs -traced)")
		bootLatency = flag.Duration("boot-latency", 0, "wall-clock per-boot device wait (demo/benchmark realism)")
		maxConns    = flag.Int("max-conns", daemon.DefaultMaxConns, "concurrent connection limit")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget before in-flight requests are cancelled")
		versionOnly = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *versionOnly {
		fmt.Println(version.String())
		return
	}
	logger := log.New(os.Stderr, "squirreld: ", log.LstdFlags)
	if *index == "gossip" {
		*peers = true
	}
	if err := run(logger, *addr, *metricsAddr, *nImages, *nNodes, *obsRing, *peers, *traced, *index, *gossipEvery, *bootLatency, *maxConns, *drain); err != nil {
		logger.Println(err)
		os.Exit(1)
	}
}

func run(logger *log.Logger, addr, metricsAddr string, nImages, nNodes, obsRing int, peers, traced bool, index string, gossipEvery, bootLatency time.Duration, maxConns int, drain time.Duration) error {
	local, err := ctlplane.NewLocal(ctlplane.Options{
		Images:      nImages,
		Nodes:       nNodes,
		Peers:       peers,
		Traced:      traced,
		Index:       index,
		BootLatency: bootLatency,
		ObsRingSize: obsRing,
	})
	if err != nil {
		return err
	}
	// Under the decentralized index a live daemon runs gossip rounds on
	// a wall-clock ticker, and rounds are what expire leases (tests and
	// soaks drive rounds explicitly via GossipTicks instead, so churn
	// scenarios replay deterministically).
	if local.Squirrel().Gossip() != nil && gossipEvery > 0 {
		stopGossip := make(chan struct{})
		defer close(stopGossip)
		go func() {
			tick := time.NewTicker(gossipEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopGossip:
					return
				case <-tick.C:
					if _, err := local.Squirrel().GossipTicks(1); err != nil {
						return
					}
				}
			}
		}()
	}
	srv := daemon.New(local, daemon.Config{
		Addr:     addr,
		MaxConns: maxConns,
		Logf:     logger.Printf,
		Tel:      local.Squirrel().Telemetry(),
	})
	if err := srv.Listen(); err != nil {
		return err
	}

	// The live telemetry surface is a plain HTTP mux on its own listener,
	// so a scrape can never interfere with control-plane framing.
	if metricsAddr != "" {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("squirreld: metrics listen %s: %w", metricsAddr, err)
		}
		defer mln.Close()
		logger.Printf("metrics listening on %s (/metrics Prometheus, /telemetry JSON)", mln.Addr())
		msrv := &http.Server{Handler: daemon.MetricsHandler(local.Squirrel().Telemetry())}
		defer msrv.Close()
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				logger.Printf("metrics server: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	draining := make(chan struct{})
	shutdownErr := make(chan error, 1)
	go func() {
		s := <-sig
		logger.Printf("received %s; draining (budget %s, signal again to force)", s, drain)
		close(draining)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		go func() {
			<-sig
			logger.Printf("second signal; forcing shutdown")
			cancel()
		}()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	if err := srv.Serve(); err != nil {
		return err
	}
	// Serve returns as soon as the listener closes; if a signal started
	// the drain, hold the process open until it finishes flushing
	// in-flight requests.
	select {
	case <-draining:
		if err := <-shutdownErr; err != nil {
			logger.Printf("drain incomplete: %v", err)
		}
	default:
	}
	logger.Printf("shutdown complete")
	return nil
}
