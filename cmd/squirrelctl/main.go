// Command squirrelctl drives a Squirrel deployment end to end through a
// subcommand CLI: it registers images (with propagation), boots VMs on
// compute nodes, runs failure drama, streams telemetry, and drives the
// workload engine's million-boot scenarios.
//
// By default the deployment is built in-process (the simulator). With
// -addr the same script runs against a live squirreld over the
// versioned TCP wire protocol — same subcommands, same reports, same
// exit codes.
//
// Usage:
//
//	squirrelctl run                           # demo run with defaults
//	squirrelctl run -images 32 -nodes 8 -vms 4
//	squirrelctl run -offline node03           # take one node offline mid-run
//	squirrelctl peers                         # peer exchange on; dumps the index
//	squirrelctl peers -index gossip           # decentralized peer index
//	squirrelctl health                        # crash/rot/scrub/resilver drama + health dump
//	squirrelctl telemetry                     # traced run; dumps the telemetry snapshot
//	squirrelctl trace boot                    # traced run; renders the slowest boot's span tree
//	squirrelctl watch -n 3 -interval 500ms    # stream live telemetry deltas during the run
//	squirrelctl workload -arrivals flash -nodes 10000 -boots 1000000
//	squirrelctl workload -arrivals flash -index gossip
//	squirrelctl run -addr 127.0.0.1:7677      # any subcommand, against a live squirreld
//	squirrelctl version
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/obs"
	"repro/internal/wireclient"
)

// Exit codes, keyed off the core package's sentinel errors so scripts
// can tell operator mistakes (bad image/node names) from real failures.
// The same codes come back from a remote squirreld: error frames carry
// the sentinel family across the wire.
const (
	exitFailure      = 1 // generic failure
	exitUnknownImage = 2
	exitUnknownNode  = 3
	exitNodeOffline  = 4
	exitOverloaded   = 5 // boot shed by admission control; retry after load drains
	exitConnect      = 6 // cannot reach squirreld, or protocol handshake failed

	exitUsage = 2 // flag-parse failures (matches flag.ExitOnError's code)
)

// exitCode maps an error chain onto the ctl's exit codes.
func exitCode(err error) int {
	switch {
	case errors.Is(err, core.ErrUnknownImage):
		return exitUnknownImage
	case errors.Is(err, core.ErrUnknownNode):
		return exitUnknownNode
	case errors.Is(err, core.ErrNodeOffline):
		return exitNodeOffline
	case errors.Is(err, core.ErrOverloaded):
		return exitOverloaded
	case errors.Is(err, wireclient.ErrConnect), errors.Is(err, wireclient.ErrHandshake):
		return exitConnect
	default:
		return exitFailure
	}
}

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the one resolved form every invocation reduces to: each
// subcommand parser fills this struct and hands it to execute.
type options struct {
	// Deployment shape (in-process mode; the daemon's corpus and cluster
	// govern when addr is set).
	images int
	nodes  int
	addr   string
	index  string

	// Scenario script knobs.
	vms       int
	offline   string
	verify    bool
	peers     bool
	health    bool
	telemetry bool
	trace     string
	watchN    int
	watchIvl  time.Duration

	// Workload engine (the workload subcommand only).
	workload bool
	wl       ctlplane.WorkloadArgs
}

// execute resolves flag implications, opens the session, and runs the
// selected surface. All user-visible output goes to stdout; errors and
// usage go to stderr.
func execute(o options, stdout, stderr io.Writer) int {
	if o.telemetry || o.trace != "" {
		// The snapshot (and the trace ring) is most interesting when
		// every op kind fires.
		o.peers, o.health = true, true
	}
	if o.index == "gossip" {
		// A decentralized index without the peer exchange has nothing to
		// resolve.
		o.peers = true
	}
	traced := o.telemetry || o.trace != "" || o.watchN > 0
	sess, err := newSession(o.addr, o.images, o.nodes, o.peers, traced, o.index)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitCode(err)
	}
	defer sess.Close()
	ctx := context.Background()
	if o.workload {
		err = runWorkload(ctx, sess, o.wl, stdout)
	} else {
		err = run(ctx, sess, o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitCode(err)
	}
	return 0
}

// newSession picks the deployment: a live daemon when addr is set, an
// in-process simulator otherwise. Both satisfy ctlplane.Session, so
// run never knows the difference. A traced daemon session gets its own
// client-side telemetry, which is what lets trace render one tree
// spanning both processes.
func newSession(addr string, nImages, nNodes int, peers, traced bool, index string) (ctlplane.Session, error) {
	if addr != "" {
		o := wireclient.Options{Addr: addr}
		if traced {
			o.Obs = obs.New(0)
		}
		return wireclient.Dial(o)
	}
	return ctlplane.NewLocal(ctlplane.Options{
		Images: nImages,
		Nodes:  nNodes,
		Peers:  peers,
		Traced: traced,
		Index:  index,
	})
}
