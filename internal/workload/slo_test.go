// Integration tests driving the workload engine through a real
// ctlplane.Local deployment — the reduced-scale version of the CI
// flash-crowd gate. These live in an external test package so workload
// itself never imports the control plane (ctlplane imports workload for
// the TWorkload op).
package workload_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/ctlplane"
	"repro/internal/workload"
)

// newDeployment builds a peered Local and returns it with its catalog.
func newDeployment(t testing.TB, index string, images, nodes int) (*ctlplane.Local, workload.Config) {
	t.Helper()
	sess, err := ctlplane.NewLocal(ctlplane.Options{Images: images, Nodes: nodes, Peers: true, Index: index})
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	t.Cleanup(func() { sess.Close() })
	info, err := sess.Info()
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	return sess, workload.Config{
		Images: info.Images,
		Nodes:  info.ComputeNodes,
		Seed:   1337,
	}
}

// The CI gate at reduced scale: a flash crowd against a real deployment
// must stay inside the latency SLO, shed almost nothing, and serve the
// cold nodes from peers — under both content-index implementations.
func TestWorkloadFlashSLO(t *testing.T) {
	for _, index := range []string{"central", "gossip"} {
		t.Run(index, func(t *testing.T) {
			sess, cfg := newDeployment(t, index, 16, 64)
			cfg.Arrivals = workload.Flash
			cfg.Boots = 6400
			sum, err := workload.Run(context.Background(), sess, cfg, nil)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			t.Logf("%s", sum)
			if sum.Boots != 6400 || sum.Admitted+sum.Shed != sum.Boots {
				t.Fatalf("accounting: %+v", sum)
			}
			if sum.P99Ms > 1500 {
				t.Fatalf("p99 %.0fms breaches the 1500ms SLO", sum.P99Ms)
			}
			if sum.P999Ms < sum.P99Ms || sum.P50Ms > sum.P99Ms {
				t.Fatalf("quantiles out of order: p50 %.0f p99 %.0f p99.9 %.0f", sum.P50Ms, sum.P99Ms, sum.P999Ms)
			}
			if sum.ShedRate > 0.05 {
				t.Fatalf("shed rate %.2f%% above 5%%", 100*sum.ShedRate)
			}
			if sum.Cold == 0 {
				t.Fatalf("no cold boots: replica drops did not take")
			}
			if sum.PeerHitRate < 0.5 {
				t.Fatalf("peer-hit rate %.2f: cold boots are not being served from peers", sum.PeerHitRate)
			}
			// Memoization keeps the real-boot count far below the schedule.
			if sum.Executed >= 1000 {
				t.Fatalf("Executed = %d of %d scheduled; memoization broken", sum.Executed, sum.Boots)
			}
			stats, err := sess.Stats()
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			if stats.IndexSource != index {
				t.Fatalf("deployment index = %q, want %q", stats.IndexSource, index)
			}
		})
	}
}

// Two identically-built deployments driven with the same seed produce
// identical summaries under the logical clock — the property the CLI's
// workload_tail output and the golden tests rely on. A gossip
// deployment's summary is the same one: its leases expire in rounds,
// which a fault-free drive never needs, so it serves every cold boot
// the central index does however long the drive takes.
func TestWorkloadDeterministicAcrossDeployments(t *testing.T) {
	run := func(index string) workload.Summary {
		sess, cfg := newDeployment(t, index, 8, 32)
		cfg.Arrivals = workload.Flash
		cfg.Boots = 3200
		sum, err := workload.Run(context.Background(), sess, cfg, nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		sum.ElapsedSec, sum.HeapMB, sum.Index = 0, 0, ""
		return sum
	}
	a, b := run("central"), run("central")
	if a != b {
		t.Fatalf("same seed, fresh deployments, different summaries:\n  a: %+v\n  b: %+v", a, b)
	}
	if g := run("gossip"); g != a {
		t.Fatalf("gossip summary differs from central:\n  central: %+v\n  gossip:  %+v", a, g)
	}
}

// The streaming-aggregation memory bound: driving 20x the boots through
// the same deployment must not grow the heap meaningfully, because the
// driver retains no per-boot state. Any per-boot retention (say 100
// bytes each) would show up as tens of MB at the large count.
func TestWorkloadHeapCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("heap-growth measurement is slow under -short")
	}
	sess, cfg := newDeployment(t, "central", 16, 64)
	cfg.Arrivals = workload.Flash

	measure := func(boots int) float64 {
		cfg.Boots = boots
		if _, err := workload.Run(context.Background(), sess, cfg, nil); err != nil {
			t.Fatalf("run(%d): %v", boots, err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}

	small := measure(20000)
	big := measure(400000)
	growth := big - small
	t.Logf("heap after 20k boots: %.1f MB; after 400k boots: %.1f MB; growth %.1f MB", small, big, growth)
	if growth > 32 {
		t.Fatalf("heap grew %.1f MB between 20k- and 400k-boot drives; driver is retaining per-boot state", growth)
	}
}
