package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/zvol"
)

// countdownCtx is a context whose Err flips to context.Canceled after k
// calls — a deterministic way to cancel an operation at an exact internal
// checkpoint without goroutines or timers. Done returns a channel that
// never closes, so only explicit Err checks observe the cancellation.
type countdownCtx struct {
	calls atomic.Int64
	k     int64
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.k {
		return context.Canceled
	}
	return nil
}

// registerAt runs one Register at GOMAXPROCS procs: at 1 its legs apply
// in order on the calling goroutine (TestForEachSerialOrder). No core
// test calls t.Parallel, so the setting reaches only this call.
func registerAt(ctx context.Context, procs int, sq *Squirrel, req RegisterRequest) (RegisterReport, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return sq.Register(ctx, req)
}

// TestSentinelErrors pins the errors.Is contract of the public API: the
// unknown-image, unknown-node, and offline-node failure modes must be
// distinguishable across Boot, Register, Deregister, and SyncNode.
func TestSentinelErrors(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 2)
	im := repo.Images[0]
	if _, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node00"}); !errors.Is(err, ErrUnknownImage) {
		t.Fatalf("boot of unregistered image: want ErrUnknownImage, got %v", err)
	}
	mustRegister(t, sq, im, day(0))
	if _, err := sq.Register(context.Background(), RegisterRequest{Image: im, At: day(0)}); !errors.Is(err, ErrRegistered) {
		t.Fatalf("duplicate register: want ErrRegistered, got %v", err)
	}
	if _, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "ghost"}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("boot on unknown node: want ErrUnknownNode, got %v", err)
	}
	if _, err := sq.SyncNode(bg, "ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("sync of unknown node: want ErrUnknownNode, got %v", err)
	}
	if err := sq.Deregister("nope"); !errors.Is(err, ErrUnknownImage) {
		t.Fatalf("deregister of unknown image: want ErrUnknownImage, got %v", err)
	}
	if err := sq.SetOnline("node00", false); err != nil {
		t.Fatal(err)
	}
	if _, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node00"}); !errors.Is(err, ErrNodeOffline) {
		t.Fatalf("boot on offline node: want ErrNodeOffline, got %v", err)
	}
}

// TestParallelLegsMatchSerial registers the same fault-seeded images on
// two identical deployments — one applying propagation legs serially
// (GOMAXPROCS 1), one on a worker per leg (GOMAXPROCS 8, 6 legs) — and
// requires byte-identical reports. All order-dependent fault draws
// happen outside the parallel phase, so worker scheduling must not be
// observable. The scVolume's write compresses its new blocks on a
// helper per extra P (none at GOMAXPROCS 1), so after each registration
// every volume must also place every image's blocks alike — addresses,
// lengths, compressed flags — and report the same Stats.
func TestParallelLegsMatchSerial(t *testing.T) {
	plan := fault.Plan{
		Seed: 4242, Drop: 0.2, Truncate: 0.05, Corrupt: 0.1,
		Crash: 0.04, Torn: 0.05, MaxCrashes: 2,
	}
	serial, _, repoS, _ := testDeployment(t, 6, withFaults(plan))
	parallel, _, repoP, _ := testDeployment(t, 6, withFaults(plan))
	for i := 0; i < 4; i++ {
		repS, errS := registerAt(context.Background(), 1, serial, RegisterRequest{Image: repoS.Images[i], At: day(i)})
		repP, errP := registerAt(context.Background(), 8, parallel, RegisterRequest{Image: repoP.Images[i], At: day(i)})
		if (errS == nil) != (errP == nil) {
			t.Fatalf("register %d: serial err=%v parallel err=%v", i, errS, errP)
		}
		if !reflect.DeepEqual(repS, repP) {
			t.Fatalf("register %d diverged:\nserial:   %+v\nparallel: %+v", i, repS, repP)
		}
		lS, lP := volumeLayouts(t, serial, repoS.Images[:i+1]), volumeLayouts(t, parallel, repoP.Images[:i+1])
		for vol, want := range lS {
			if got := lP[vol]; !reflect.DeepEqual(want, got) {
				t.Fatalf("register %d: %s diverged:\nserial:   %+v\nparallel: %+v", i, vol, want, got)
			}
		}
	}
	hS, hP := serial.Health(), parallel.Health()
	if !reflect.DeepEqual(hS, hP) {
		t.Fatalf("health diverged:\nserial:   %+v\nparallel: %+v", hS, hP)
	}
}

// volumeLayout is what a volume holds of a set of images: each one's
// block placement (or the error asking for it) and the volume's Stats.
type volumeLayout struct {
	Blocks map[string]any
	Stats  zvol.Stats
}

// volumeLayouts is volumeLayout of ims on sq's scVolume and on every
// node's replica, keyed "sc" and by node ID.
func volumeLayouts(t *testing.T, sq *Squirrel, ims []*corpus.Image) map[string]volumeLayout {
	t.Helper()
	vols := map[string]*zvol.Volume{"sc": sq.SCVolume()}
	for id := range sq.replicas {
		ccv, err := sq.CCVolume(id)
		if err != nil {
			t.Fatal(err)
		}
		vols[id] = ccv
	}
	out := map[string]volumeLayout{}
	for name, v := range vols {
		l := volumeLayout{Blocks: map[string]any{}, Stats: v.Stats()}
		for _, im := range ims {
			infos, err := v.BlockInfos(im.ID)
			if err != nil {
				l.Blocks[im.ID] = err.Error()
				continue
			}
			l.Blocks[im.ID] = infos
		}
		out[name] = l
	}
	return out
}

// TestConcurrentSameNodeBoots hammers one node with concurrent verified
// boots of the same image; every boot must be warm and correct (the
// replica chain is read-shared, never mutated by a boot).
func TestConcurrentSameNodeBoots(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 2)
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node01", Verify: true})
			if err != nil {
				t.Errorf("boot: %v", err)
				return
			}
			if !rep.Warm {
				t.Errorf("concurrent same-node boot went cold: %+v", rep)
			}
		}()
	}
	wg.Wait()
}

// TestPeerLendWhileSourceCacheChurns races Verify-ed cold boots, each
// lent its ranges straight out of node00's replica, against warm boots on
// node00 whose working set (48 images, 5.1 MiB of decoded blocks)
// outgrows zvol's 4 MiB decoded-block cache, so the entries a cold boot
// is being lent are evicted and refilled around it. Every cold boot must
// still be served whole by the peer and byte-exact; under the race
// detector a lent entry that is written after its fill, or reused once
// evicted, shows as a race.
func TestPeerLendWhileSourceCacheChurns(t *testing.T) {
	const images, rounds = 48, 3
	sq, _, repo, _ := testDeployment(t, 3, daemonCorpus(images), withPeers)
	ims := repo.Images[:images]
	for i, im := range ims {
		mustRegister(t, sq, im, day(i))
	}
	cold, coldNodes := ims[:2], []string{"node01", "node02"}
	for _, im := range cold {
		for _, node := range coldNodes {
			if err := sq.DropReplica(node, im.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	payloads := map[uint64]int32{}
	for _, im := range ims {
		bootPayloads(t, sq, im, "node00", payloads)
	}
	ctr := decodeCounted(sq)
	var wg sync.WaitGroup
	for _, node := range coldNodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, im := range cold {
					rep, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: node, Verify: true})
					if err != nil {
						t.Errorf("cold boot %s on %s: %v", im.ID, node, err)
						return
					}
					if rep.PeerBytes != im.CacheSize() || rep.PeerFallbacks != 0 || rep.PeerNode != "node00" {
						t.Errorf("cold boot %s on %s not served whole by node00: %+v", im.ID, node, rep)
					}
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for j := range ims {
					im := ims[(j+g*images/2)%images]
					rep, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node00"})
					if err != nil || !rep.Warm {
						t.Errorf("warm boot %s on node00: %+v, %v", im.ID, rep, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// More decodes than distinct blocks: some entry was evicted and
	// decoded again while the cold boots ran.
	if misses := ctr.Get("zvol.decode.miss"); misses <= int64(len(payloads)) {
		t.Fatalf("%d decodes of %d distinct blocks: the decoded-block cache never churned", misses, len(payloads))
	}
}

// TestConcurrentRegisterSameImage races two registrations of the same
// image: exactly one must win, the other must fail with ErrRegistered,
// and the winner's snapshot must reach every node.
func TestConcurrentRegisterSameImage(t *testing.T) {
	sq, cl, repo, _ := testDeployment(t, 4)
	im := repo.Images[0]
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := sq.Register(context.Background(), RegisterRequest{Image: im, At: day(0)})
			errs <- err
		}()
	}
	var won, dup int
	for i := 0; i < 2; i++ {
		switch err := <-errs; {
		case err == nil:
			won++
		case errors.Is(err, ErrRegistered):
			dup++
		default:
			t.Fatalf("unexpected register error: %v", err)
		}
	}
	if won != 1 || dup != 1 {
		t.Fatalf("want exactly one winner and one ErrRegistered, got %d/%d", won, dup)
	}
	for _, n := range cl.Compute {
		if rep, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: n.ID, Verify: true}); err != nil || !rep.Warm {
			t.Fatalf("boot on %s after racing registers: warm=%v err=%v", n.ID, rep.Warm, err)
		}
	}
}

// TestRegisterCancelledBeforeCommit aborts a registration with an
// already-cancelled context: nothing may be committed, and a retry must
// succeed from clean state.
func TestRegisterCancelledBeforeCommit(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 2)
	im := repo.Images[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sq.Register(ctx, RegisterRequest{Image: im, At: day(0)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := sq.Registered(); len(got) != 0 {
		t.Fatalf("cancelled register left images behind: %v", got)
	}
	if _, err := sq.Register(context.Background(), RegisterRequest{Image: im, At: day(0)}); err != nil {
		t.Fatalf("retry after cancelled register: %v", err)
	}
}

// TestRegisterCancelledMidPropagation cancels after the storage-side
// commit but before all legs applied (serial legs make the cut
// deterministic): the commit stands, the image is registered, skipped
// nodes are marked lagging, and SyncNode heals them.
func TestRegisterCancelledMidPropagation(t *testing.T) {
	sq, cl, repo, _ := testDeployment(t, 4, withFaults(fault.Plan{Seed: 1}))
	im := repo.Images[0]
	// Err call sites on this path: one at entry, one pre-propagation
	// inside the commit section, then one per leg. k=3 lets the first
	// leg through and cancels from the second leg on.
	ctx := &countdownCtx{k: 3}
	rep, err := registerAt(ctx, 1, sq, RegisterRequest{Image: im, At: day(0)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep.Nodes != 1 || len(rep.Lagging) != 3 {
		t.Fatalf("want 1 synced + 3 lagging-after-cancel, got %+v", rep)
	}
	if got := sq.Registered(); len(got) != 1 {
		t.Fatalf("post-commit cancel must keep the image registered, got %v", got)
	}
	lag := sq.Lagging()
	if len(lag) != 3 {
		t.Fatalf("want 3 lagging nodes, got %v", lag)
	}
	for _, id := range lag {
		srep, err := sq.SyncNode(bg, id)
		if err != nil {
			t.Fatal(err)
		}
		if !srep.Healed {
			t.Fatalf("sync of cancelled-leg node %s did not heal: %+v", id, srep)
		}
	}
	for _, n := range cl.Compute {
		if brep, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: n.ID, Verify: true}); err != nil || !brep.Warm {
			t.Fatalf("boot on %s after heal: warm=%v err=%v", n.ID, brep.Warm, err)
		}
	}
}

// TestBootCancelledMidReplay cancels a boot partway through its trace
// replay; the boot must abort with the context error and leave no
// deployment state behind.
func TestBootCancelledMidReplay(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 2)
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	// One Err call at entry, one per trace entry: k=2 cancels at the
	// second read.
	ctx := &countdownCtx{k: 2}
	if _, err := sq.Boot(ctx, BootRequest{Image: im.ID, Node: "node01", Verify: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The node is untouched: a plain boot still runs warm.
	if rep, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node01", Verify: true}); err != nil || !rep.Warm {
		t.Fatalf("boot after cancelled boot: warm=%v err=%v", rep.Warm, err)
	}
}

// TestMaintenanceCancellation covers the remaining context plumbing:
// Scrub, Resilver, and SyncNode must refuse an already-cancelled
// context without touching any replica.
func TestMaintenanceCancellation(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 2)
	mustRegister(t, sq, repo.Images[0], day(0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sq.ScrubNode(ctx, "node00", day(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScrubNode: want context.Canceled, got %v", err)
	}
	if _, err := sq.ScrubAll(ctx, day(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScrubAll: want context.Canceled, got %v", err)
	}
	if _, err := sq.ResilverNode(ctx, "node00", day(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ResilverNode: want context.Canceled, got %v", err)
	}
	if _, err := sq.ResilverAll(ctx, day(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ResilverAll: want context.Canceled, got %v", err)
	}
	if _, err := sq.SyncNode(ctx, "node00"); !errors.Is(err, context.Canceled) {
		t.Fatalf("SyncNode: want context.Canceled, got %v", err)
	}
}

// TestConcurrentRegisterAndBootInterleaving races registrations against
// verified boots and syncs under a seeded fault plan; afterwards every
// node must converge to every image (the chaos-soak invariant, now under
// true concurrency). The race detector is the oracle for safety; the
// convergence loop is the oracle for liveness.
func TestConcurrentRegisterAndBootInterleaving(t *testing.T) {
	plan := fault.Plan{Seed: 7, Drop: 0.1, Corrupt: 0.05, MaxCrashes: 1, Crash: 0.02}
	sq, cl, repo, _ := testDeployment(t, 4, withFaults(plan))
	mustRegister(t, sq, repo.Images[0], day(0))
	var wg sync.WaitGroup
	for i := 1; i <= 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := sq.Register(context.Background(), RegisterRequest{Image: repo.Images[i], At: day(i)}); err != nil {
				t.Errorf("register %d: %v", i, err)
			}
		}(i)
	}
	for _, n := range cl.Compute {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				// Drops/corruption can leave the node lagging mid-race;
				// verified boots heal and must stay correct throughout.
				if _, err := sq.Boot(bg, BootRequest{Image: repo.Images[0].ID, Node: id, Verify: true}); err != nil &&
					!errors.Is(err, ErrNodeOffline) {
					t.Errorf("boot on %s: %v", id, err)
					return
				}
			}
		}(n.ID)
	}
	wg.Wait()
	// Convergence: restart anything down, then sync everything.
	for _, st := range sq.Health() {
		if !st.Online {
			if _, err := sq.RestartNode(st.NodeID, day(6)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range cl.Compute {
		if _, err := sq.SyncNode(bg, n.ID); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= 4; i++ {
			rep, err := sq.Boot(bg, BootRequest{Image: repo.Images[i].ID, Node: n.ID, Verify: true})
			if err != nil {
				t.Fatalf("final boot of %s on %s: %v", repo.Images[i].ID, n.ID, err)
			}
			if !rep.Warm {
				t.Fatalf("final boot of %s on %s went cold: %+v", repo.Images[i].ID, n.ID, rep)
			}
		}
	}
}

// BenchmarkBootStorm measures warm-boot throughput at increasing
// concurrency over a 16-node cluster — the boot-storm scenario the lock
// sharding exists for. Each boot carries a simulated device wait
// (Config.BootLatency), making the storm I/O-bound like the real thing;
// the /1 case is the serialized baseline (exactly what the old global
// manager mutex produced at any concurrency), and scaling shows as
// ns/op dropping with the worker count as the waits overlap.
//
// The scaling bar is asserted here: when /1 and /16 both ran, /16 must
// beat /1 by stormScalingBar or the benchmark fails. A filtered run that
// skips either side (-bench 'BootStorm/64') is not judged.
//
//	go test -run '^$' -bench BenchmarkBootStorm ./internal/core/
func BenchmarkBootStorm(b *testing.B) {
	const stormScalingBar = 4        // x, /1 ns/op over /16 ns/op
	nsPerOp := make(map[int]float64) // workers → ns/op of the sub-benchmark's last (longest) run
	for _, workers := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprint(workers), func(b *testing.B) {
			sq, cl, repo, _ := testDeployment(b, 16, withBootLatency(time.Millisecond))
			im := repo.Images[0]
			mustRegister(b, sq, im, day(0))
			// One warm-up boot per node so the storm measures steady state.
			for _, n := range cl.Compute {
				if _, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: n.ID, Verify: false}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						node := cl.Compute[int(i)%len(cl.Compute)].ID
						if _, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: node, Verify: false}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			nsPerOp[workers] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if serial, ok := nsPerOp[1]; ok && workers == 16 {
				b.ReportMetric(serial/nsPerOp[16], "speedup-x")
			}
		})
	}
	serial, ok1 := nsPerOp[1]
	storm, ok16 := nsPerOp[16]
	if ok1 && ok16 && serial/storm < stormScalingBar {
		b.Fatalf("boot-storm scaling: /16 is %.1fx faster than /1 (%.0f vs %.0f ns/op), bar is >= %vx",
			serial/storm, storm, serial, stormScalingBar)
	}
}

// BenchmarkStormFirstBoot is a boot storm on an image's arrival: N
// concurrent first boots, N in {1, 8, 32}, of one image just registered
// on a one-node daemon-shaped deployment. Every iteration builds its
// deployment and registers the image outside the timer; the stored
// payloads are new slices, so the decoded-block cache starts cold for the
// image. It reports µs per boot and the decodes per distinct block the
// boot touches (zvol.decode.miss over bootPayloads): a cache that fills
// each block once reads 1.00 at every N, one whose concurrent misses each
// decode reads up to N.
//
//	go test -run '^$' -bench BenchmarkStormFirstBoot -benchtime 20x ./internal/core/
func BenchmarkStormFirstBoot(b *testing.B) {
	for _, n := range []int{1, 8, 32} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var decodes, blocks int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sq, _, repo, _ := testDeployment(b, 1, daemonCorpus(1))
				im := repo.Images[0]
				mustRegister(b, sq, im, day(0))
				ctr := decodeCounted(sq)
				payloads := map[uint64]int32{}
				bootPayloads(b, sq, im, "node00", payloads)
				var wg sync.WaitGroup
				b.StartTimer()
				for g := 0; g < n; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node00"})
						if err != nil || !rep.Warm {
							b.Errorf("boot %s: %+v, %v", im.ID, rep, err)
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				decodes += ctr.Get("zvol.decode.miss")
				blocks += int64(len(payloads))
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "us/boot")
			b.ReportMetric(float64(decodes)/float64(blocks), "decodes/block")
		})
	}
}
