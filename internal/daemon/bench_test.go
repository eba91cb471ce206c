package daemon

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/wireclient"
)

// rpcRig is the deployment the RPC rungs share: a daemon over 32
// registered images on 8 nodes, and two wireclient connections to it
// over loopback TCP.
func rpcRig(b *testing.B) (ctlplane.Info, []*wireclient.Client) {
	const images, nodes, conns = 32, 8, 2
	local, err := ctlplane.NewLocal(ctlplane.Options{Images: images, Nodes: nodes})
	if err != nil {
		b.Fatal(err)
	}
	info, err := local.Info()
	if err != nil {
		b.Fatal(err)
	}
	for i, id := range info.Images {
		if _, err := local.Register(context.Background(), id, sessionT0.Add(time.Duration(i)*time.Minute)); err != nil {
			b.Fatal(err)
		}
	}
	srv := serveSession(b, local, Config{})
	clients := make([]*wireclient.Client, conns)
	for i := range clients {
		c, err := wireclient.Dial(wireclient.Options{Addr: srv.Addr().String()})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return info, clients
}

// closedLoop runs ops 0..b.N-1 split over the connections, each running
// its share back to back, and reports wall µs per op.
func closedLoop(b *testing.B, clients []*wireclient.Client, op func(c *wireclient.Client, i int) error) {
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *wireclient.Client) {
			defer wg.Done()
			for i := ci; i < b.N; i += len(clients) {
				if err := op(c, i); err != nil {
					b.Error(err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/op")
}

// BenchmarkControlRPC is the ledger rung for the control plane's smallest
// messages: the wire-level control_rpc workload in one process — the
// rpcRig deployment, each connection running a closed loop over the
// seeded 40/30/20/10 mix of ComputeRx, Health, Info and Stats. One op is
// one round trip; µs/op is wall time over both connections' ops, B/op
// counts client and daemon together. computerx-us, health-us, info-us and
// stats-us are each kind's mean round trip, so a profile is not needed
// to see which op leads.
func BenchmarkControlRPC(b *testing.B) {
	_, clients := rpcRig(b)
	kinds := [...]string{"computerx-us", "health-us", "info-us", "stats-us"}
	weights := [10]int{0, 0, 0, 0, 1, 1, 1, 2, 2, 3} // 40/30/20/10
	mix := make([]int, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range mix {
		mix[i] = weights[rng.Intn(10)]
	}
	var spent, calls [len(kinds)]atomic.Int64
	closedLoop(b, clients, func(c *wireclient.Client, i int) error {
		var err error
		k := mix[i%len(mix)]
		start := time.Now()
		switch k {
		case 0:
			_, err = c.ComputeRx()
		case 1:
			_, err = c.Health()
		case 2:
			_, err = c.Info()
		default:
			_, err = c.Stats()
		}
		spent[k].Add(int64(time.Since(start)))
		calls[k].Add(1)
		return err
	})
	for k, name := range kinds {
		if n := calls[k].Load(); n > 0 {
			b.ReportMetric(float64(spent[k].Load())/float64(n)/1e3, name)
		}
	}
}

// BenchmarkBootRPC is the ledger rung for the boot round trip: the
// wire-level warm_boot workload in one process — the rpcRig deployment,
// each connection running a closed loop of boots over a seeded Zipf-1.2
// image mix on uniformly drawn nodes, every one of them warm. One op is
// one boot; µs/op is wall time over both connections' boots, B/op counts
// client and daemon together.
//
// Client and daemon share this one process's Ps, so the in-process RPC
// rungs cannot see a change to which goroutine a side wakes per round
// trip. Letting each wireclient call read its own reply, instead of a
// read-loop goroutine handing it over, took the two-process warm_boot
// from 36.6k to 40.7k ops/s (seed 1) and 36.4k to 39.1k (seed 3), 10
// of 10 pairs each, while these rungs read, over 4 interleaved runs on
// 2 Xeon vCPUs: this one 17.3–21.8 → 17.6–22.2 µs/op with 2
// connections and 41.3–55.1 → 46.0–53.5 with 1; BenchmarkControlRPC
// 16.8–23.1 → 16.7–20.5. Judge client-side scheduling with bench/run.sh.
func BenchmarkBootRPC(b *testing.B) {
	info, clients := rpcRig(b)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(info.Images)-1))
	mix := make([]core.BootRequest, 4096)
	for i := range mix {
		mix[i] = core.BootRequest{Image: info.Images[zipf.Uint64()], Node: info.ComputeNodes[rng.Intn(len(info.ComputeNodes))]}
	}
	closedLoop(b, clients, func(c *wireclient.Client, i int) error {
		req := mix[i%len(mix)]
		rep, err := c.Boot(context.Background(), req)
		if err == nil && !rep.Warm {
			err = fmt.Errorf("boot %s on %s was not warm: %+v", req.Image, req.Node, rep)
		}
		return err
	})
}

// BenchmarkDaemonBootWaveTracingOverhead is core's
// BenchmarkBootWaveTracingOverhead over the wire: the same deployment
// served twice, traced and untraced, each behind its own daemon and
// wireclient connection on loopback TCP, configured as squirreld
// configures itself (the traced daemon opens an rpc.dispatch span per
// request). Every iteration runs one warm boot wave across the whole
// cluster on each side, alternating which side goes first. overhead-% is
// the traced waves' total time over the untraced waves', minus one;
// span-ns/boot is the same difference per boot. It reports and does not
// judge: the 5% bar is core's, on the in-process boot.
//
//	go test -run '^$' -bench BenchmarkDaemonBootWaveTracingOverhead -benchtime 2000x ./internal/daemon/
func BenchmarkDaemonBootWaveTracingOverhead(b *testing.B) {
	const images, nodes = 4, 8
	var spent [2]time.Duration // untraced, traced
	var wave [2]func()
	for side := range wave {
		local, err := ctlplane.NewLocal(ctlplane.Options{Images: images, Nodes: nodes, Traced: side == 1})
		if err != nil {
			b.Fatal(err)
		}
		info, err := local.Info()
		if err != nil {
			b.Fatal(err)
		}
		for i, id := range info.Images {
			if _, err := local.Register(context.Background(), id, sessionT0.Add(time.Duration(i)*time.Minute)); err != nil {
				b.Fatal(err)
			}
		}
		srv := serveSession(b, local, Config{Tel: local.Squirrel().Telemetry()})
		c, err := wireclient.Dial(wireclient.Options{Addr: srv.Addr().String()})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		wave[side] = func() {
			start := time.Now()
			for _, im := range info.Images {
				for _, n := range info.ComputeNodes {
					if rep, err := c.Boot(context.Background(), core.BootRequest{Image: im, Node: n}); err != nil || !rep.Warm {
						b.Fatalf("boot %s on %s: %+v, %v", im, n, rep, err)
					}
				}
			}
			spent[side] += time.Since(start)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave[i%2]()
		wave[1-i%2]()
	}
	b.ReportMetric(100*(float64(spent[1])/float64(spent[0])-1), "overhead-%")
	b.ReportMetric(float64(spent[1]-spent[0])/float64(b.N*images*nodes), "span-ns/boot")
}
