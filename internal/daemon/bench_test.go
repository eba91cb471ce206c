package daemon

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/wireclient"
)

// BenchmarkControlRPC is the ledger rung for the control plane's smallest
// messages: the wire-level control_rpc workload in one process — a
// daemon over 32 registered images on 8 nodes, two wireclient connections
// each running a closed loop over the seeded 40/30/20/10 mix of
// ComputeRx, Health, Info and Stats across loopback TCP. One op is one
// round trip; µs/op is wall time over both connections' ops, B/op counts
// client and daemon together.
func BenchmarkControlRPC(b *testing.B) {
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
		defer c.Close()
		clients[i] = c
	}
	mix := make([]int, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range mix {
		mix[i] = rng.Intn(10)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *wireclient.Client) {
			defer wg.Done()
			for i := ci; i < b.N; i += conns {
				var err error
				switch p := mix[i%len(mix)]; {
				case p < 4:
					_, err = c.ComputeRx()
				case p < 7:
					_, err = c.Health()
				case p < 9:
					_, err = c.Info()
				default:
					_, err = c.Stats()
				}
				if err != nil {
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
