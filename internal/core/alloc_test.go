package core

import (
	"context"
	"runtime"
	"testing"
)

func TestWarmBootAllocatesNoBuffers(t *testing.T) {
	// A warm boot reads ~200 KB through whole-cluster visits, and the
	// chain lends every byte rather than copying it into a buffer: the
	// local replica lends its blocks to the boot, which only counts them.
	// So a boot allocates only bookkeeping (its chain backend and
	// overlay), ≈ 0.25 KB — it used to allocate 334 KB, and the garbage
	// paced the collector. The limit leaves room for a GC emptying a pool
	// mid-run, after which a buffer is allocated again. The warm-up boot
	// also fills zvol's decoded-block cache, and the four images' blocks
	// fit in its budget, so every later block read is a hit, the cache's
	// entry lent as it is; a miss would allocate the 64 KB block that
	// becomes the entry, and show here.
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	boot, images := warmBoots(t)
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		boot()
	}
	runtime.ReadMemStats(&after)
	perBoot := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*images)
	if limit := 32.0 * 1024; perBoot > limit {
		t.Fatalf("a warm boot allocated %.0f bytes, limit %.0f", perBoot, limit)
	}
	t.Logf("a warm boot allocates %.0f bytes", perBoot)
}

// warmBoots registers four images of the daemon's corpus and returns a
// round that boots each of them warm on node00, having run one round to
// warm the pools and zvol's decoded-block cache.
func warmBoots(t *testing.T, opts ...option) (round func(), images int) {
	sq, _, repo, _ := testDeployment(t, 2, append(opts, daemonCorpus(4))...)
	ims := repo.Images[:4]
	for i, im := range ims {
		mustRegister(t, sq, im, day(i))
	}
	round = func() {
		for _, im := range ims {
			rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node00"})
			if err != nil || !rep.Warm {
				t.Fatalf("boot %s: %+v, %v", im.ID, rep, err)
			}
		}
	}
	round()
	return round, len(ims)
}

func TestWarmWorkingSetFitsDecodeBudget(t *testing.T) {
	// BenchmarkWarmBoot's 1000 boots, replayed twice. The first pass
	// decodes each block the mix touches; they all fit zvol's 4 MiB decode
	// budget, so the second pass is served by the decoded-block cache
	// without one decode. A corpus or mix that outgrows the budget fails
	// here, naming the working set it needs.
	sq, seq := warmBootMix(t)
	ctr := decodeCounted(sq)
	bootAllWarm(t, sq, seq)
	first := ctr.Get("zvol.decode.miss")
	bootAllWarm(t, sq, seq)
	again := ctr.Get("zvol.decode.miss") - first

	payloads := map[uint64]int32{}
	seen := map[string]bool{}
	for _, req := range seq {
		if !seen[req.Image] {
			seen[req.Image] = true
			sq.state.RLock()
			im := sq.images[req.Image]
			sq.state.RUnlock()
			bootPayloads(t, sq, im, "node00", payloads)
		}
	}
	var bytes int64
	for _, n := range payloads {
		bytes += int64(n)
	}
	mib := float64(bytes) / (1 << 20)
	t.Logf("%d images booted, %d distinct payloads, %.2f MiB decoded; %d decodes in the first pass",
		len(seen), len(payloads), mib, first)
	if again != 0 {
		t.Fatalf("the second pass decoded %d blocks: the mix's working set is %d distinct payloads, %.2f MiB decoded, over zvol's decode budget",
			again, len(payloads), mib)
	}
}

func TestWarmBootAllocationCount(t *testing.T) {
	// A warm boot allocates its chain backend and its overlay, and
	// nothing else: the cache-object layout is the image's, built once by
	// corpus, and an overlay without copy-on-read makes no cluster table.
	// With the peer exchange on it allocates no more: the peer fetcher is
	// built at a boot's first remote range, and a warm boot reads none.
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, mode := range []struct {
		name string
		opts []option
	}{{"local", nil}, {"peers", []option{withPeers}}} {
		t.Run(mode.name, func(t *testing.T) {
			boot, images := warmBoots(t, mode.opts...)
			perBoot := testing.AllocsPerRun(50, boot) / float64(images)
			if want := 2.0; perBoot > want {
				t.Fatalf("a warm boot made %.2f allocations, want %.0f", perBoot, want)
			}
			t.Logf("a warm boot makes %.2f allocations", perBoot)
		})
	}
}

func TestCleanLegCheckAllocatesNothing(t *testing.T) {
	// Every clean propagation leg asks replicaCaughtUp whether its
	// replica already holds the snapshot it carries, and the answer is
	// almost always no. Asking must not build the error a failed lookup
	// once formatted: a registration asks it once per replica.
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	sq, _, repo, _ := testDeployment(t, 2)
	mustRegister(t, sq, repo.Images[0], day(0))
	r := sq.replicas["node01"]
	r.mu.Lock()
	defer r.mu.Unlock()
	if sq.replicaCaughtUp(r, "cVol@000999-none") {
		t.Fatal("a replica without the snapshot reads as caught up")
	}
	if got := testing.AllocsPerRun(100, func() { sq.replicaCaughtUp(r, "cVol@000999-none") }); got != 0 {
		t.Fatalf("replicaCaughtUp on a replica without the snapshot made %.1f allocations, want 0", got)
	}
}
