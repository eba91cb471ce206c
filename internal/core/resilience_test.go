package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/peer"
)

// resilienceDeployment builds a peer-enabled, fault-seeded deployment
// whose config the caller can mutate before construction.
func resilienceDeployment(t testing.TB, computeNodes int, plan fault.Plan,
	mutate func(*Config)) (*Squirrel, *cluster.Cluster, *corpus.Repository) {
	sq, cl, repo, _ := deploymentWith(t, computeNodes, func(c *Config) {
		c.Peer = peer.DefaultPolicy()
		c.Faults = seeded(t, plan)
		if mutate != nil {
			mutate(c)
		}
	})
	return sq, cl, repo
}

// waitGoroutines waits for the goroutine count to drain back to at most
// base (with slack for runtime helpers), failing the test otherwise.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now, %d at start", runtime.NumGoroutine(), base)
}

// TestPartitionSoak drives the full partition lifecycle: a seeded
// minority cut opens mid-deployment, registrations during the cut strand
// the minority (lagging, withdrawn from the peer index, counted as
// partition faults), boots on the majority keep working off
// majority-side holders only, boots on the minority fail transiently
// with ErrPartitioned — and after the heal's anti-entropy pass plus
// SyncNode, every node converges with zero lagging replicas.
func TestPartitionSoak(t *testing.T) {
	base := runtime.NumGoroutine()
	sq, cl, repo := resilienceDeployment(t, 6, fault.Plan{Seed: 31}, nil)
	im0, im1 := repo.Images[0], repo.Images[1]
	mustRegister(t, sq, im0, day(0))

	// The minority is drawn from the fault seed, so the whole scenario
	// replays from the plan alone.
	var ids []string
	for _, n := range cl.Compute {
		ids = append(ids, n.ID)
	}
	minority := sq.injector().PartitionPick("soak", ids, 2)
	if len(minority) != 2 {
		t.Fatalf("PartitionPick returned %v", minority)
	}
	cut := map[string]bool{minority[0]: true, minority[1]: true}
	if err := sq.PartitionNodes(minority...); err != nil {
		t.Fatal(err)
	}

	// While the cut is open the peer index must hold no entries for the
	// stranded holders, and Health must say why.
	for _, st := range sq.Health() {
		if cut[st.NodeID] != st.Unreachable {
			t.Fatalf("%s unreachable=%v, cut=%v", st.NodeID, st.Unreachable, cut[st.NodeID])
		}
		if cut[st.NodeID] && !st.Withdrawn {
			t.Fatalf("cut node %s still announced in the peer index", st.NodeID)
		}
	}

	// A registration during the cut reaches the majority and strands the
	// minority as lagging partition casualties — it does not fail.
	rep, err := sq.Register(context.Background(), RegisterRequest{Image: im1, At: day(1)})
	if err != nil {
		t.Fatalf("register during cut: %v", err)
	}
	if rep.Nodes != 4 || len(rep.Lagging) != 2 {
		t.Fatalf("register during cut: %+v", rep)
	}
	for _, id := range rep.Lagging {
		if !cut[id] {
			t.Fatalf("majority node %s lagging after cut register", id)
		}
	}
	ctr := sq.injector().Counters()
	if got := ctr.Get("fault.partition"); got != 2 {
		t.Fatalf("fault.partition = %d, want 2", got)
	}
	if got := ctr.Get("repair.partitioned"); got != 2 {
		t.Fatalf("repair.partitioned = %d, want 2", got)
	}

	// Majority boots keep working: a cold miss is served without ever
	// selecting a stranded holder.
	var majority []string
	for _, id := range ids {
		if !cut[id] {
			majority = append(majority, id)
		}
	}
	if err := sq.DropReplica(majority[0], im1.ID); err != nil {
		t.Fatal(err)
	}
	brep, err := sq.Boot(bg, BootRequest{Image: im1.ID, Node: majority[0], Verify: true})
	if err != nil {
		t.Fatalf("majority boot during cut: %v", err)
	}
	if brep.PeerBytes <= 0 || cut[brep.PeerNode] {
		t.Fatalf("majority boot served by %q (peerBytes=%d)", brep.PeerNode, brep.PeerBytes)
	}
	// Minority boots fail transiently: the lagging node cannot heal
	// across the cut.
	if _, err := sq.Boot(bg, BootRequest{Image: im0.ID, Node: minority[0]}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("minority boot during cut: want ErrPartitioned, got %v", err)
	}
	if _, err := sq.SyncNode(bg, minority[0]); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("minority sync during cut: want ErrPartitioned, got %v", err)
	}

	// Heal: the cut nodes re-announce their authoritative holdings
	// (anti-entropy over the index) and report as still lagging.
	hrep, err := sq.HealPartition()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), minority...)
	sort.Strings(want)
	if !reflect.DeepEqual(hrep.Healed, want) || !reflect.DeepEqual(hrep.Lagging, want) {
		t.Fatalf("heal report %+v, want healed=lagging=%v", hrep, want)
	}
	if hrep.Reannounced != 2 {
		t.Fatalf("reannounced %d nodes, want 2", hrep.Reannounced)
	}
	for _, id := range minority {
		if !sq.PeerIndex().Holds(im0.ID, id) {
			t.Fatalf("healed node %s not re-announced for %s", id, im0.ID)
		}
		if sq.PeerIndex().Holds(im1.ID, id) {
			t.Fatalf("healed node %s announced for %s it never received", id, im1.ID)
		}
	}
	// Offline propagation catches the stranded nodes up; nothing lags.
	for _, id := range hrep.Lagging {
		srep, err := sq.SyncNode(bg, id)
		if err != nil {
			t.Fatal(err)
		}
		if !srep.Healed {
			t.Fatalf("post-heal sync of %s did not heal: %+v", id, srep)
		}
	}
	if lag := sq.Lagging(); len(lag) != 0 {
		t.Fatalf("lagging after heal+sync: %v", lag)
	}
	for _, n := range cl.Compute {
		for _, im := range []*corpus.Image{im0, im1} {
			rep, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: n.ID, Verify: true})
			if err != nil {
				t.Fatalf("converged boot of %s on %s: %v", im.ID, n.ID, err)
			}
			if !rep.Warm && n.ID != majority[0] {
				t.Fatalf("converged boot of %s on %s went cold: %+v", im.ID, n.ID, rep)
			}
		}
	}
	waitGoroutines(t, base)
}

// hedgeDeployment builds a deployment where each of n images is held by
// exactly two designated nodes and booted from a third, all triples
// disjoint — so concurrent boots share no peer-index load state and the
// hedge outcome is a pure function of the fault seed.
func hedgeDeployment(t *testing.T, images int) (*Squirrel, []*corpus.Image, []string) {
	t.Helper()
	plan := fault.Plan{Seed: 99, Slow: 0.6, SlowSec: 0.05}
	sq, cl, repo := resilienceDeployment(t, 3*images, plan, func(cfg *Config) {
		cfg.Peer.Hedge = true
	})
	if len(repo.Images) < images {
		t.Fatalf("corpus too small: %d images", len(repo.Images))
	}
	var ims []*corpus.Image
	var bootNodes []string
	for i := 0; i < images; i++ {
		im := repo.Images[i]
		ims = append(ims, im)
		mustRegister(t, sq, im, day(i))
		// Keep replicas only on the triple's two holder nodes.
		keep := map[int]bool{3*i + 1: true, 3*i + 2: true}
		for j, n := range cl.Compute {
			if !keep[j] {
				if err := sq.DropReplica(n.ID, im.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		bootNodes = append(bootNodes, cl.Compute[3*i].ID)
	}
	return sq, ims, bootNodes
}

// TestHedgeDeterminismSerialVsParallel boots the same slow-peer-seeded
// images serially on one deployment and concurrently on an identical
// one: every BootReport — hedges fired, hedges won, stall accounting,
// byte provenance — must be byte-identical, the hedged-fetch mirror of
// TestParallelLegsMatchSerial.
func TestHedgeDeterminismSerialVsParallel(t *testing.T) {
	base := runtime.NumGoroutine()
	const images = 3
	serial, imsS, nodesS := hedgeDeployment(t, images)
	parallel, _, nodesP := hedgeDeployment(t, images)

	serialReps := make([]BootReport, images)
	for i, im := range imsS {
		rep, err := serial.Boot(bg, BootRequest{Image: im.ID, Node: nodesS[i], Verify: true})
		if err != nil {
			t.Fatalf("serial boot %d: %v", i, err)
		}
		serialReps[i] = rep
	}
	parallelReps := make([]BootReport, images)
	var wg sync.WaitGroup
	for i, im := range imsS {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			rep, err := parallel.Boot(bg, BootRequest{Image: id, Node: nodesP[i], Verify: true})
			if err != nil {
				t.Errorf("parallel boot %d: %v", i, err)
				return
			}
			parallelReps[i] = rep
		}(i, im.ID)
	}
	wg.Wait()

	var fired, won int
	for i := range serialReps {
		if !reflect.DeepEqual(serialReps[i], parallelReps[i]) {
			t.Fatalf("boot %d diverged:\nserial:   %+v\nparallel: %+v",
				i, serialReps[i], parallelReps[i])
		}
		fired += serialReps[i].HedgesFired
		won += serialReps[i].HedgesWon
		if serialReps[i].PeerBytes <= 0 {
			t.Fatalf("boot %d not peer-served: %+v", i, serialReps[i])
		}
	}
	// The seed must actually exercise the hedge path, both firing and
	// winning, or the determinism claim is vacuous.
	if fired == 0 || won == 0 {
		t.Fatalf("seed exercised no hedges: fired=%d won=%d", fired, won)
	}
	ctr := serial.PeerIndex().Counters()
	if ctr.Get("peer.hedge_fired") != int64(fired) || ctr.Get("peer.hedge_won") != int64(won) {
		t.Fatalf("hedge counters disagree with reports: %s", ctr)
	}
	if ctr.Get("peer.hedge_cancelled") == 0 {
		t.Fatal("no losing leg was ever cancelled")
	}
	waitGoroutines(t, base)
}

// TestBreakerDegradesBootToPFS turns every peer transfer into a drop:
// the per-peer breakers trip, subsequent cold boots skip the dead peers
// and fall straight back to the PFS, and once the faults clear a probe
// serve closes the breakers and peer serving resumes.
func TestBreakerDegradesBootToPFS(t *testing.T) {
	sq, _, repo := resilienceDeployment(t, 4, fault.Plan{Seed: 3}, func(cfg *Config) {
		cfg.Peer.Breaker = peer.DefaultBreakerPolicy()
	})
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	if err := sq.DropReplica("node03", im.ID); err != nil {
		t.Fatal(err)
	}
	// All peer serves fail from here on; registration already happened.
	setFaults(sq, fault.Plan{Seed: 3, Drop: 1}, t)

	rep, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node03", Verify: true})
	if err != nil {
		t.Fatalf("boot with dead peers: %v", err)
	}
	if rep.PeerBytes != 0 || rep.NetworkBytes <= 0 {
		t.Fatalf("dead-peer boot provenance: %+v", rep)
	}
	if rep.BreakerTrips == 0 {
		t.Fatalf("no breakers tripped: %+v", rep)
	}
	ctr := sq.PeerIndex().Counters()
	if ctr.Get("breaker.trip") == 0 || ctr.Get("peer.fallback") == 0 {
		t.Fatalf("breaker counters: %s", ctr)
	}
	for _, st := range sq.Health() {
		if st.NodeID != "node03" && st.Breaker == "" {
			t.Fatalf("health hides breaker state for %s", st.NodeID)
		}
	}
	// With breakers open, another boot degrades straight to the PFS:
	// open holders are skipped, not retried.
	skips := ctr.Get("breaker.skip")
	if _, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node03", Verify: true}); err != nil {
		t.Fatalf("boot with open breakers: %v", err)
	}
	if ctr.Get("breaker.skip") <= skips {
		t.Fatal("open breakers were not consulted on the follow-up boot")
	}
	// Faults clear; within a few boots a half-open probe succeeds, the
	// breakers close, and the peer path serves again.
	setFaults(sq, fault.Plan{Seed: 3}, t)
	for i := 0; i < 6; i++ {
		rep, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node03", Verify: true})
		if err != nil {
			t.Fatalf("recovery boot %d: %v", i, err)
		}
		if rep.PeerBytes > 0 {
			return
		}
	}
	t.Fatal("peer serving never recovered after faults cleared")
}

// TestBootAdmissionShedsOverload saturates one node's admission gate
// with concurrent boots: the slot plus the queue admit exactly two, the
// rest shed immediately with ErrOverloaded, and the gate drains clean.
func TestBootAdmissionShedsOverload(t *testing.T) {
	base := runtime.NumGoroutine()
	sq, _, repo := resilienceDeployment(t, 2, fault.Plan{Seed: 1}, func(cfg *Config) {
		cfg.Admission = AdmissionPolicy{MaxInFlight: 1, MaxQueue: 1}
		cfg.BootLatency = 30 * time.Millisecond
	})
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	const storm = 4
	start := make(chan struct{})
	errs := make(chan error, storm)
	for i := 0; i < storm; i++ {
		go func() {
			<-start
			_, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node01"})
			errs <- err
		}()
	}
	close(start)
	var booted, shed int
	for i := 0; i < storm; i++ {
		switch err := <-errs; {
		case err == nil:
			booted++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("unexpected boot error: %v", err)
		}
	}
	// Scheduling may let an early boot finish before the last goroutine
	// arrives, so the exact split can shift by one — but the gate must
	// have shed at least one boot and admitted at least two.
	if booted+shed != storm || shed < 1 || booted < 2 {
		t.Fatalf("booted=%d shed=%d, want them to sum to %d with >=1 shed", booted, shed, storm)
	}
	ctr := sq.injector().Counters()
	if got := ctr.Get("admit.shed"); got != int64(shed) {
		t.Fatalf("admit.shed = %d, want %d", got, shed)
	}
	if ctr.Get("admit.queued") == 0 {
		t.Fatal("no boot ever queued")
	}
	// The gate drained: a fresh boot admits immediately.
	if _, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node01"}); err != nil {
		t.Fatalf("boot after storm: %v", err)
	}
	waitGoroutines(t, base)
}

// TestBootAdmissionDeadlineWhileQueued queues a boot behind a held slot
// with a deadline shorter than the holder's runtime: the queued boot
// must return ErrOverloaded (and the context error) within its
// deadline, not block until the slot frees.
func TestBootAdmissionDeadlineWhileQueued(t *testing.T) {
	sq, _, repo := resilienceDeployment(t, 2, fault.Plan{Seed: 1}, func(cfg *Config) {
		cfg.Admission = AdmissionPolicy{MaxInFlight: 1, MaxQueue: 4}
		cfg.BootLatency = 80 * time.Millisecond
	})
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	holder := make(chan error, 1)
	go func() {
		_, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node01"})
		holder <- err
	}()
	// Wait until the holder actually owns the slot.
	ctr := sq.injector().Counters()
	for i := 0; ctr.Get("admit.admitted") == 0; i++ {
		if i > 1000 {
			t.Fatal("holder never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	t1 := time.Now()
	_, err := sq.Boot(ctx, BootRequest{Image: im.ID, Node: "node01"})
	waited := time.Since(t1)
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued boot past deadline: %v", err)
	}
	if waited > 60*time.Millisecond {
		t.Fatalf("shed took %v, deadline was 15ms", waited)
	}
	if got := ctr.Get("admit.expired"); got != 1 {
		t.Fatalf("admit.expired = %d, want 1", got)
	}
	if err := <-holder; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
	// The expired waiter must not have wedged the gate.
	if _, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node01"}); err != nil {
		t.Fatalf("boot after expiry: %v", err)
	}
}

// slowPeerBooter builds the slow-peer deployment — one image, node03's
// replica dropped so its boots are cold, three holders that stall 40 ms
// on 35% of serves — and returns boot(i), the i-th cold boot of node03.
// Each boot re-seeds the slow-serve lane, so a run of boots is a
// population rather than one replayed draw. The latency boot returns is
// the simulated end-to-end figure, a function of the seed alone: fabric
// transfer time for every byte that moved plus the stall time slow
// serves cost.
func slowPeerBooter(tb testing.TB, hedge bool) func(i int) (BootReport, float64) {
	sq, cl, repo := resilienceDeployment(tb, 4, fault.Plan{Seed: 1}, func(cfg *Config) {
		cfg.Peer.Hedge = hedge
	})
	im := repo.Images[0]
	if _, err := sq.Register(context.Background(), RegisterRequest{Image: im, At: day(0)}); err != nil {
		tb.Fatal(err)
	}
	if err := sq.DropReplica("node03", im.ID); err != nil {
		tb.Fatal(err)
	}
	return func(i int) (BootReport, float64) {
		setFaults(sq, fault.Plan{Seed: int64(i + 1), Slow: 0.35, SlowSec: 0.04}, tb)
		rep, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node03", Verify: true})
		if err != nil {
			tb.Fatal(err)
		}
		return rep, cl.Fabric.TransferSec(rep.NetworkBytes+rep.PeerBytes) + rep.PeerStallSec
	}
}

// The slow-peer cold-boot pair times what hedging costs on the wall
// clock (a second leg and its goroutine per slow range). What hedging
// buys is simulated latency, which TestHedgeCutsSlowPeerTail asserts.
func benchColdBootSlowPeer(b *testing.B, hedge bool) {
	boot := slowPeerBooter(b, hedge)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boot(i)
	}
}

func BenchmarkColdBootSlowPeerUnhedged(b *testing.B) { benchColdBootSlowPeer(b, false) }
func BenchmarkColdBootSlowPeerHedged(b *testing.B)   { benchColdBootSlowPeer(b, true) }

// TestHedgeCutsSlowPeerTail holds the hedged-fetch claim over one seed
// population, hedged against unhedged: hedging must cut the simulated
// p99 cold-boot latency (gain > 1x), strictly reduce total stall time,
// and never send a slow-peer boot to the PFS. Run alone:
//
//	go test -run TestHedgeCutsSlowPeerTail -v ./internal/core/
func TestHedgeCutsSlowPeerTail(t *testing.T) {
	const boots = 256
	run := func(hedge bool) (p99, stall float64, fired int) {
		boot := slowPeerBooter(t, hedge)
		lat := make([]float64, boots)
		for i := range lat {
			var rep BootReport
			rep, lat[i] = boot(i)
			stall += rep.PeerStallSec
			fired += rep.HedgesFired
			if rep.NetworkBytes != 0 {
				t.Fatalf("slow-peer boot leaked to the PFS: %+v", rep)
			}
		}
		sort.Float64s(lat)
		return lat[int(0.99*float64(len(lat)-1))], stall, fired
	}
	unhedgedP99, unhedgedStall, _ := run(false)
	hedgedP99, hedgedStall, fired := run(true)
	t.Logf("slow-peer cold-boot p99 over %d boots: unhedged %.4g ms, hedged %.4g ms (%.2fx)",
		boots, unhedgedP99*1000, hedgedP99*1000, unhedgedP99/hedgedP99)
	if fired == 0 {
		t.Fatal("hedged run fired no hedges")
	}
	if hedgedP99 >= unhedgedP99 {
		t.Fatalf("hedging gained %.2fx on the p99 (hedged %.4g ms vs unhedged %.4g ms), bar is > 1x",
			unhedgedP99/hedgedP99, hedgedP99*1000, unhedgedP99*1000)
	}
	if hedgedStall >= unhedgedStall {
		t.Fatalf("hedging did not cut stall time: hedged %.3fs vs unhedged %.3fs",
			hedgedStall, unhedgedStall)
	}
}
