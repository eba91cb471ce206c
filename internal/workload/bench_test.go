package workload_test

import (
	"context"
	"testing"

	"repro/internal/ctlplane"
	"repro/internal/workload"
)

// tailCases are the rows of the boot-latency tail table: arrival process
// x index mode, each 100k boots driven through a real 128-node
// deployment under the logical clock.
var tailCases = []struct {
	arrivals, index string
}{
	{workload.Poisson, "central"},
	{workload.Diurnal, "central"},
	{workload.Flash, "central"},
	{workload.Flash, "gossip"},
}

func tailScenario(tb testing.TB, arrivals, index string) (*ctlplane.Local, workload.Config) {
	sess, cfg := newDeployment(tb, index, 16, 128)
	cfg.Arrivals = arrivals
	cfg.Boots = 100000
	return sess, cfg
}

// BenchmarkWorkloadTail times the driver over each tail scenario. The
// figures a scenario produces (p99, p99.9, shed and peer-hit rates) are
// functions of the seed, so TestWorkloadTail prints and asserts them.
func BenchmarkWorkloadTail(b *testing.B) {
	for _, tc := range tailCases {
		b.Run(tc.arrivals+"-"+tc.index, func(b *testing.B) {
			sess, cfg := tailScenario(b, tc.arrivals, tc.index)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := workload.Run(context.Background(), sess, cfg, nil); err != nil {
					b.Fatalf("run: %v", err)
				}
			}
		})
	}
}

// TestWorkloadTail logs the tail table (-v) and holds the flash crowd on
// the central index to its bars: p99 boot latency inside the SLO, and
// the cold nodes served from peers rather than the PFS.
//
//	go test -run TestWorkloadTail -v ./internal/workload/
func TestWorkloadTail(t *testing.T) {
	const (
		maxP99Ms   = 2400 // ShedMs 2000 + DeviceMs 400: an admitted warm or peer-served boot
		minPeerHit = 0.90
	)
	for _, tc := range tailCases {
		t.Run(tc.arrivals+"-"+tc.index, func(t *testing.T) {
			t.Parallel() // each scenario owns its deployment
			sess, cfg := tailScenario(t, tc.arrivals, tc.index)
			sum, err := workload.Run(context.Background(), sess, cfg, nil)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			t.Logf("%s", sum)
			if tc.arrivals != workload.Flash || tc.index != "central" {
				return
			}
			if sum.P99Ms > maxP99Ms {
				t.Fatalf("flash-crowd p99 %.4g ms, bar is <= %d ms", sum.P99Ms, maxP99Ms)
			}
			if sum.PeerHitRate < minPeerHit {
				t.Fatalf("flash-crowd peer-hit rate %.4g%%, bar is >= %.4g%%", 100*sum.PeerHitRate, 100*minPeerHit)
			}
		})
	}
}
