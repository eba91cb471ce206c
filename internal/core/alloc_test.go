package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/corpus"
)

// daemonShaped is a deployment of the shape squirreld serves and the
// wire-level benchmark drives: paper-default 64 KB blocks and clusters,
// gzip6, the daemon's corpus scaling.
func daemonShaped(t testing.TB, images, nodes int) (*Squirrel, []*corpus.Image) {
	t.Helper()
	cl, err := cluster.New(cluster.GigE, 4, nodes)
	if err != nil {
		t.Fatal(err)
	}
	pfs, err := cluster.NewPFS(cl, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := New(DefaultConfig(), cl, pfs)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := corpus.New(corpus.DefaultSpec().Scale(float64(images)/607, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	return sq, repo.Images[:images]
}

func TestWarmBootAllocatesNoBuffers(t *testing.T) {
	// A warm boot reads ~200 KB through whole-cluster fetches; neither the
	// clusters nor the VM's read buffer outlive it, so both are pooled and
	// a boot allocates only bookkeeping (layout slices, report, overlay) —
	// it used to allocate 334 KB, and the garbage paced the collector.
	// The warm-up boot also fills zvol's decoded-block cache, and the four
	// images' blocks fit in its budget, so every later block read is a hit
	// copied into the pooled cluster; a miss would allocate the 64 KB
	// decoded copy the cache keeps, and show here.
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	sq, ims := daemonShaped(t, 4, 2)
	for i, im := range ims {
		mustRegister(t, sq, im, day(i))
	}
	boot := func() {
		for _, im := range ims {
			rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node00"})
			if err != nil || !rep.Warm {
				t.Fatalf("boot %s: %+v, %v", im.ID, rep, err)
			}
		}
	}
	boot() // warm the pools
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		boot()
	}
	runtime.ReadMemStats(&after)
	perBoot := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*len(ims))
	if limit := 32.0 * 1024; perBoot > limit {
		t.Fatalf("a warm boot allocated %.0f bytes, limit %.0f", perBoot, limit)
	}
	t.Logf("a warm boot allocates %.0f bytes", perBoot)
}
