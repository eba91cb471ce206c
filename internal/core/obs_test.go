package core

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/zvol"
)

// lastTree dumps the newest ring tree of one kind, or nil.
func lastTree(tel *obs.Telemetry, kind string) *obs.TreeDump {
	var last *obs.TreeDump
	for _, d := range tel.Trees() {
		if d.Kind == kind {
			last = d
		}
	}
	return last
}

// childrenOf lists d's direct children of one kind.
func childrenOf(d *obs.TreeDump, kind string) []*obs.TreeDump {
	var out []*obs.TreeDump
	for _, c := range d.Children {
		if c.Kind == kind {
			out = append(out, c)
		}
	}
	return out
}

// obsScriptDeployment is lifecycleDeployment with tracing switchable,
// for the traced-vs-untraced boundary test.
func obsScriptDeployment(t testing.TB, computeNodes int, plan fault.Plan, traced bool) (*Squirrel, *cluster.Cluster, *corpus.Repository) {
	sq, cl, repo, _ := deploymentWith(t, computeNodes, func(c *Config) {
		c.Faults = seeded(t, plan)
		c.Peer = peer.DefaultPolicy()
		if traced {
			c.Obs = obs.New(0)
		}
	})
	return sq, cl, repo
}

// TestTraceColdBootPeerExchange is the trace-based acceptance check: a
// cold boot under the peer exchange must show a peerFetch span that
// served bytes, and its pfsRead lane must carry zero indexed bytes —
// every range inside the cache extents came from peers, the PFS saw
// only the gaps.
func TestTraceColdBootPeerExchange(t *testing.T) {
	sq, cl, repo, _ := lifecycleDeployment(t, 6, fault.Plan{Seed: 1})
	tel := sq.Telemetry()
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	cold := cl.Compute[len(cl.Compute)-1].ID
	if err := sq.DropReplica(cold, im.ID); err != nil {
		t.Fatal(err)
	}
	rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: cold, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeerBytes == 0 || rep.PeerFallbacks != 0 {
		t.Fatalf("cold boot did not ride the peer exchange: %+v", rep)
	}

	sp := lastTree(tel, obs.OpBoot)
	if sp == nil {
		t.Fatal("no boot span recorded")
	}
	if sp.Node != cold || sp.Image != im.ID || sp.Err != "" {
		t.Fatalf("boot span wrong: %s", obs.RenderDump(sp))
	}
	var peerSpanBytes, indexedPFS int64
	var peerSpans int
	for _, c := range childrenOf(sp, obs.OpPeerFetch) {
		peerSpans++
		peerSpanBytes += c.Bytes
		if c.Node == "" || c.Node == cold {
			t.Fatalf("peerFetch span has bad source %q:\n%s", c.Node, obs.RenderDump(sp))
		}
	}
	for _, c := range childrenOf(sp, obs.OpPFSRead) {
		indexedPFS += c.Annots["indexed_bytes"]
	}
	if peerSpans == 0 || peerSpanBytes != rep.PeerBytes {
		t.Fatalf("peerFetch spans %d bytes %d, report says %d:\n%s",
			peerSpans, peerSpanBytes, rep.PeerBytes, obs.RenderDump(sp))
	}
	if indexedPFS != 0 {
		t.Fatalf("cold boot read %d indexed bytes from the PFS, want 0:\n%s",
			indexedPFS, obs.RenderDump(sp))
	}
	// Lane spans must reconcile with the report's byte accounting.
	var cacheSpanBytes, pfsSpanBytes int64
	for _, c := range childrenOf(sp, obs.OpCacheRead) {
		cacheSpanBytes += c.Bytes
	}
	for _, c := range childrenOf(sp, obs.OpPFSRead) {
		pfsSpanBytes += c.Bytes
	}
	if cacheSpanBytes != rep.CacheBytes || pfsSpanBytes != rep.NetworkBytes {
		t.Fatalf("lane spans cache=%d pfs=%d, report cache=%d pfs=%d",
			cacheSpanBytes, pfsSpanBytes, rep.CacheBytes, rep.NetworkBytes)
	}

	// The unified registry aggregates both ops and the shared counters.
	snap := tel.Snapshot()
	for _, kind := range []string{obs.OpRegister, obs.OpBoot, obs.OpPeerFetch, obs.OpPropagate} {
		op, ok := snap.Op(kind)
		if !ok || op.Count == 0 {
			t.Fatalf("snapshot missing op kind %q:\n%s", kind, snap.JSON())
		}
	}
	if snap.Counters["peer.hit"] == 0 {
		t.Fatalf("peer.hit counter not unified into telemetry: %v", snap.Counters)
	}
}

// scriptResult collects every report a scripted lifecycle run produces;
// the boundary test requires traced and untraced runs to be deeply equal.
type scriptResult struct {
	Regs      []RegisterReport
	Rot       map[string][]zvol.BlockRef
	Restarts  []RecoveryReport
	Scrubs    map[string]zvol.ScrubReport
	Resilvers []ResilverReport
	Boots     []BootReport
	Destroyed int
	Health    []NodeStatus
	Stats     DeploymentStats
}

// runLifecycleScript drives one deployment through a fixed fault-seeded
// scenario: registrations under chaos, rot, restart, scrub, resilver,
// verified boots, GC.
func runLifecycleScript(t *testing.T, sq *Squirrel, cl *cluster.Cluster, repo *corpus.Repository) scriptResult {
	t.Helper()
	res := scriptResult{Rot: map[string][]zvol.BlockRef{}}
	const regs = 4
	for i := 0; i < regs; i++ {
		rep, err := sq.Register(context.Background(), RegisterRequest{Image: repo.Images[i], At: day(i)})
		if err != nil {
			t.Fatal(err)
		}
		res.Regs = append(res.Regs, rep)
	}
	for _, n := range cl.Compute {
		refs, err := sq.InjectRot(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		res.Rot[n.ID] = refs
	}
	for _, st := range sq.Health() {
		if !st.Online {
			rep, err := sq.RestartNode(st.NodeID, day(regs))
			if err != nil {
				t.Fatal(err)
			}
			res.Restarts = append(res.Restarts, rep)
		}
	}
	scrubs, err := sq.ScrubAll(bg, day(regs))
	if err != nil {
		t.Fatal(err)
	}
	res.Scrubs = scrubs
	rs, err := sq.ResilverAll(bg, day(regs))
	if err != nil {
		t.Fatal(err)
	}
	res.Resilvers = rs
	latest := repo.Images[regs-1]
	for _, st := range sq.Health() {
		if !st.Online {
			continue
		}
		rep, err := sq.Boot(context.Background(), BootRequest{Image: latest.ID, Node: st.NodeID, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		res.Boots = append(res.Boots, rep)
	}
	res.Destroyed = sq.GarbageCollect(day(regs + 20))
	res.Health = sq.Health()
	res.Stats = sq.Stats()
	return res
}

// TestNilTracerLeavesBehaviorIdentical runs the same seeded chaos script
// on a traced and an untraced deployment: every report, health row, and
// stat must be byte-identical. A disabled tracer is a pure no-op.
func TestNilTracerLeavesBehaviorIdentical(t *testing.T) {
	plan := fault.Plan{
		Seed: 4242, Drop: 0.2, Truncate: 0.05, Corrupt: 0.1,
		Crash: 0.04, Torn: 0.05, MaxCrashes: 2, Rot: 0.04,
	}
	sqT, clT, repoT := obsScriptDeployment(t, 6, plan, true)
	sqU, clU, repoU := obsScriptDeployment(t, 6, plan, false)
	traced := runLifecycleScript(t, sqT, clT, repoT)
	untraced := runLifecycleScript(t, sqU, clU, repoU)
	if !reflect.DeepEqual(traced, untraced) {
		t.Fatalf("traced and untraced runs diverged:\ntraced:   %+v\nuntraced: %+v", traced, untraced)
	}
	if sqU.Telemetry() != nil {
		t.Fatal("untraced deployment must have nil telemetry")
	}
	if sqT.Telemetry().Snapshot().SpansRecorded == 0 {
		t.Fatal("traced deployment recorded no spans")
	}
}

// TestTelemetrySnapshotRace hammers Snapshot/Prometheus/JSON/RenderDump
// from one goroutine while registers, boots, and scrub waves run from
// others. The race detector is the oracle.
func TestTelemetrySnapshotRace(t *testing.T) {
	plan := fault.Plan{Seed: 99, Drop: 0.1, Corrupt: 0.05}
	sq, cl, repo, _ := lifecycleDeployment(t, 6, plan)
	tel := sq.Telemetry()
	// Seed a couple of images so boots have something to read.
	for i := 0; i < 2; i++ {
		mustRegister(t, sq, repo.Images[i], day(i))
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := tel.Snapshot()
			_ = snap.Prometheus()
			_ = snap.JSON()
			trees := tel.Trees()
			for _, d := range trees {
				_ = obs.RenderDump(d)
			}
			_, _ = obs.Slowest(trees, obs.OpBoot)
		}
	}()
	var work sync.WaitGroup
	work.Add(3)
	go func() {
		defer work.Done()
		for i := 2; i < 6; i++ {
			_, _ = sq.Register(context.Background(), RegisterRequest{Image: repo.Images[i], At: day(i)})
		}
	}()
	go func() {
		defer work.Done()
		for round := 0; round < 3; round++ {
			for _, n := range cl.Compute {
				_, _ = sq.Boot(context.Background(), BootRequest{Image: repo.Images[0].ID, Node: n.ID, Verify: false})
			}
		}
	}()
	go func() {
		defer work.Done()
		for round := 0; round < 3; round++ {
			sq.ScrubAll(bg, day(7).Add(time.Duration(round)*time.Hour))
		}
	}()
	work.Wait()
	close(stop)
	reader.Wait()
	snap := tel.Snapshot()
	if op, ok := snap.Op(obs.OpBoot); !ok || op.Count == 0 {
		t.Fatalf("no boots aggregated: %s", snap.JSON())
	}
	if op, ok := snap.Op(obs.OpScrub); !ok || op.Count == 0 {
		t.Fatalf("no scrubs aggregated: %s", snap.JSON())
	}
}

// A traced deployment with no fault plan installed — how `squirreld
// -traced` runs — still counts core's own lifecycle and partition events
// into its telemetry.
func TestTracedDeploymentCountsWithoutFaultPlan(t *testing.T) {
	sq, cl, _, _ := deploymentWith(t, 4, func(c *Config) { c.Obs = obs.New(0) })
	node := cl.Compute[1].ID
	if err := sq.CrashNode(node, day(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sq.RestartNode(node, day(1)); err != nil {
		t.Fatal(err)
	}
	if err := sq.PartitionNodes(node); err != nil {
		t.Fatal(err)
	}
	if _, err := sq.HealPartition(); err != nil {
		t.Fatal(err)
	}
	ctr := sq.Telemetry().Counters()
	for _, name := range []string{"life.crash", "life.restart", "partition.open", "partition.heal"} {
		if got := ctr.Get(name); got != 1 {
			t.Errorf("telemetry %s = %d, want 1", name, got)
		}
	}
}
