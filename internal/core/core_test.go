package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/peer"
)

// bg is the context used by tests that don't exercise cancellation.
var bg = context.Background()

var t0 = time.Date(2014, 6, 23, 0, 0, 0, 0, time.UTC)

func day(n int) time.Time { return t0.Add(time.Duration(n) * 24 * time.Hour) }

// testDeployment builds the one deployment shape every core test runs
// on: nodes compute nodes and 4 storage nodes on one GigE fabric, a PFS
// striped 2 wide with 2 replicas, a Squirrel and its corpus. opts apply
// in order; the injector returned is the one they installed, if any.
//
// By default the corpus is corpus.TestSpec()'s, which is tiny (16 KB
// caches, CacheAlign 4 KB), so the deployment scales down with it: 4 KB
// clusters and 4 KB volume blocks. Warm boots stay network-free
// whenever ClusterSize divides the corpus's CacheAlign, which
// DefaultConfig also satisfies at full scale (64 KB / 64 KB).
func testDeployment(t testing.TB, nodes int, opts ...option) (*Squirrel, *cluster.Cluster, *corpus.Repository, *fault.Injector) {
	t.Helper()
	s := setup{Config: DefaultConfig(), corpus: corpus.TestSpec()}
	s.ClusterSize = 4096
	s.Volume.BlockSize = 4096
	for _, o := range opts {
		o(&s)
	}
	if s.plan != nil {
		s.Faults = seeded(t, *s.plan)
	}
	cl, err := cluster.New(cluster.GigE, 4, nodes)
	if err != nil {
		t.Fatal(err)
	}
	pfs, err := cluster.NewPFS(cl, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := New(s.Config, cl, pfs)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := corpus.New(s.corpus)
	if err != nil {
		t.Fatal(err)
	}
	return sq, cl, repo, s.Faults
}

// setup is what an option adjusts: the Config, whose fields it sets by
// name, and the two inputs that are not Config fields.
type setup struct {
	Config
	corpus corpus.Spec
	plan   *fault.Plan // seeded into Config.Faults once every option ran
}

// option adjusts a test deployment before it is built.
type option func(*setup)

// withPeers turns the peer block exchange on at its default policy.
func withPeers(s *setup) { s.Peer = peer.DefaultPolicy() }

// withFaults installs the injector of a seeded fault plan.
func withFaults(plan fault.Plan) option { return func(s *setup) { s.plan = &plan } }

// withTracing traces every operation into a ring of the last ring roots
// (obs's default size when ring is 0).
func withTracing(ring int) option { return func(s *setup) { s.Obs = obs.New(ring) } }

func withIndex(mode IndexMode) option { return func(s *setup) { s.Index = mode } }

func withGossip(gc gossip.Config) option { return func(s *setup) { s.Gossip = gc } }

func withBootLatency(d time.Duration) option { return func(s *setup) { s.BootLatency = d } }

// withHedge goes after withPeers, which replaces the whole peer policy.
func withHedge(on bool) option { return func(s *setup) { s.Peer.Hedge = on } }

// paperGeometry keeps DefaultConfig's 64 KB clusters and volume blocks.
func paperGeometry(s *setup) {
	d := DefaultConfig()
	s.ClusterSize, s.Volume.BlockSize = d.ClusterSize, d.Volume.BlockSize
}

// daemonCorpus is the shape squirreld serves and the wire-level
// benchmark drives: the daemon's corpus scaling for images images (the
// corpus holds more; a test uses its first images) at the paper's
// geometry.
func daemonCorpus(images int) option {
	return func(s *setup) {
		s.corpus = corpus.DefaultSpec().Scale(float64(images)/607, 0.25)
		paperGeometry(s)
	}
}

// mustRegister registers im at time at, failing the test on any error.
func mustRegister(t testing.TB, sq *Squirrel, im *corpus.Image, at time.Time) {
	t.Helper()
	if _, err := sq.Register(bg, RegisterRequest{Image: im, At: at}); err != nil {
		t.Fatal(err)
	}
}

// seeded is the injector of a fault plan.
func seeded(t testing.TB, plan fault.Plan) *fault.Injector {
	t.Helper()
	inj, err := fault.New(plan)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestRegisterPropagatesToAllNodes(t *testing.T) {
	sq, cl, repo, _ := testDeployment(t, 4)
	im := repo.Images[0]
	rep, err := sq.Register(context.Background(), RegisterRequest{Image: im, At: day(0)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 4 {
		t.Fatalf("propagated to %d nodes, want 4", rep.Nodes)
	}
	if rep.CacheBytes != im.CacheSize() {
		t.Fatalf("cache bytes %d, want %d", rep.CacheBytes, im.CacheSize())
	}
	if rep.DiffBytes <= 0 || rep.XferSec <= 0 {
		t.Fatalf("diff accounting: %+v", rep)
	}
	for _, n := range cl.Compute {
		ccv, _ := sq.CCVolume(n.ID)
		if !ccv.HasObject(im.ID) {
			t.Fatalf("replica on %s missing cache", n.ID)
		}
		if n.RxBytes() != rep.DiffBytes {
			t.Fatalf("%s rx %d, want diff %d", n.ID, n.RxBytes(), rep.DiffBytes)
		}
	}
	if _, err := sq.Register(context.Background(), RegisterRequest{Image: im, At: day(0)}); !errors.Is(err, ErrRegistered) {
		t.Fatalf("duplicate registration: %v", err)
	}
}

func TestSecondRegistrationDiffIsSmall(t *testing.T) {
	// High cache cross-similarity must make the second same-release diff
	// much smaller than the first (§5.3's O(10 MB) vs O(100 MB) point).
	sq, _, repo, _ := testDeployment(t, 2)
	var a, b *corpus.Image
	for i, x := range repo.Images {
		if x.Misaligned() {
			continue
		}
		for _, y := range repo.Images[i+1:] {
			if !y.Misaligned() && x.Distro == y.Distro && x.Release == y.Release {
				a, b = x, y
				break
			}
		}
		if a != nil {
			break
		}
	}
	if a == nil {
		t.Skip("no same-release pair")
	}
	r1, err := sq.Register(context.Background(), RegisterRequest{Image: a, At: day(0)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sq.Register(context.Background(), RegisterRequest{Image: b, At: day(0)})
	if err != nil {
		t.Fatal(err)
	}
	if r2.DiffBytes >= r1.DiffBytes {
		t.Fatalf("second diff %d should undercut first %d", r2.DiffBytes, r1.DiffBytes)
	}
}

func TestWarmBootZeroNetwork(t *testing.T) {
	sq, cl, repo, _ := testDeployment(t, 2)
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	cl.ResetCounters() // discard registration traffic; Fig 18 counts boots
	rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node01", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Warm {
		t.Fatal("boot should be warm")
	}
	if rep.NetworkBytes != 0 {
		t.Fatalf("warm boot moved %d network bytes, want 0", rep.NetworkBytes)
	}
	if cl.ComputeRxTotal() != 0 {
		t.Fatalf("compute NICs saw %d bytes during warm boot", cl.ComputeRxTotal())
	}
	if rep.ReadBytes != im.CacheSize() {
		t.Fatalf("boot read %d bytes, trace covers %d", rep.ReadBytes, im.CacheSize())
	}
}

func TestColdBootUsesNetwork(t *testing.T) {
	// A node whose replica lacks the cache (offline during registration)
	// boots over the network, with correct data.
	sq, cl, repo, _ := testDeployment(t, 2)
	im := repo.Images[0]
	sq.SetOnline("node01", false)
	mustRegister(t, sq, im, day(0))
	sq.SetOnline("node01", true)
	cl.ResetCounters()
	rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node01", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Warm || rep.NetworkBytes == 0 {
		t.Fatalf("cold boot should use the network: %+v", rep)
	}
	// Cluster-granular CoW fetches round reads up, so network bytes are
	// at least the working set.
	if rep.NetworkBytes < im.CacheSize() {
		t.Fatalf("cold boot moved %d bytes < working set %d", rep.NetworkBytes, im.CacheSize())
	}
}

func TestBootErrors(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 2)
	im := repo.Images[0]
	if _, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node00", Verify: false}); !errors.Is(err, ErrUnknownImage) {
		t.Fatalf("unregistered boot: %v", err)
	}
	sq.Register(context.Background(), RegisterRequest{Image: im, At: day(0)})
	if _, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "ghost", Verify: false}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node: %v", err)
	}
	sq.SetOnline("node00", false)
	if _, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node00", Verify: false}); !errors.Is(err, ErrNodeOffline) {
		t.Fatalf("offline node: %v", err)
	}
	if err := sq.SetOnline("ghost", true); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("SetOnline ghost: %v", err)
	}
}

func TestDeregisterPropagatesWithNextSnapshot(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 2)
	a, b := repo.Images[0], repo.Images[1]
	sq.Register(context.Background(), RegisterRequest{Image: a, At: day(0)})
	if err := sq.Deregister(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := sq.Deregister(a.ID); !errors.Is(err, ErrUnknownImage) {
		t.Fatalf("double deregister: %v", err)
	}
	// Replicas still hold the dead cache until the next registration.
	ccv, _ := sq.CCVolume("node00")
	if !ccv.HasObject(a.ID) {
		t.Fatal("deregistration should not reach replicas before next snapshot")
	}
	mustRegister(t, sq, b, day(1))
	if ccv.HasObject(a.ID) {
		t.Fatal("dead cache survived the next snapshot")
	}
	if !ccv.HasObject(b.ID) {
		t.Fatal("new cache missing")
	}
}

func TestOfflineNodeIncrementalSync(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 3)
	a, b := repo.Images[0], repo.Images[1]
	sq.Register(context.Background(), RegisterRequest{Image: a, At: day(0)})
	sq.SetOnline("node02", false)
	sq.Register(context.Background(), RegisterRequest{Image: b, At: day(1)}) // node02 misses this
	sq.SetOnline("node02", true)
	ccv, _ := sq.CCVolume("node02")
	if ccv.HasObject(b.ID) {
		t.Fatal("offline node somehow got the cache")
	}
	rep, err := sq.SyncNode(bg, "node02")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != SyncIncremental {
		t.Fatalf("mode %v, want incremental", rep.Mode)
	}
	ccv, _ = sq.CCVolume("node02")
	if !ccv.HasObject(b.ID) {
		t.Fatal("sync did not deliver the missed cache")
	}
	// A second sync is a no-op.
	rep, _ = sq.SyncNode(bg, "node02")
	if rep.Mode != SyncNone {
		t.Fatalf("resync mode %v, want none", rep.Mode)
	}
}

func TestLongOfflineNodeFullResync(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 2)
	a, b, c := repo.Images[0], repo.Images[1], repo.Images[2]
	sq.Register(context.Background(), RegisterRequest{Image: a, At: day(0)})
	sq.SetOnline("node01", false)
	sq.Register(context.Background(), RegisterRequest{Image: b, At: day(1)})
	sq.Register(context.Background(), RegisterRequest{Image: c, At: day(20)})
	// GC at day 21 with a 7-day window destroys the day-0 and day-1
	// snapshots node01 would need for an incremental sync.
	sq.GarbageCollect(day(21))
	sq.SetOnline("node01", true)
	rep, err := sq.SyncNode(bg, "node01")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != SyncFull {
		t.Fatalf("mode %v, want full re-replication", rep.Mode)
	}
	ccv, _ := sq.CCVolume("node01")
	for _, id := range []string{a.ID, b.ID, c.ID} {
		if !ccv.HasObject(id) {
			t.Fatalf("full resync missing %s", id)
		}
	}
	// After the full resync, a warm boot must work with zero network.
	bootRep, err := sq.Boot(context.Background(), BootRequest{Image: c.ID, Node: "node01", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bootRep.Warm {
		t.Fatal("boot after full resync should be warm")
	}
}

func TestBrandNewNodeSync(t *testing.T) {
	// A node with an empty replica and no snapshots does a full sync.
	sq, _, repo, _ := testDeployment(t, 2)
	sq.Register(context.Background(), RegisterRequest{Image: repo.Images[0], At: day(0)})
	// Simulate a fresh node by wiping node01's replica state via full
	// sync of a node that never received anything: node01 was online, so
	// instead test SyncNode on a node that is behind from birth.
	sq2, _, _, _ := testDeployment(t, 1)
	rep, err := sq2.SyncNode(bg, "node00")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != SyncNone {
		t.Fatalf("empty deployment sync mode %v, want none", rep.Mode)
	}
	if _, err := sq.SyncNode(bg, "ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("sync ghost: %v", err)
	}
}

func TestGarbageCollectCountsAndRegisteredList(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 2)
	sq.Register(context.Background(), RegisterRequest{Image: repo.Images[0], At: day(0)})
	sq.Register(context.Background(), RegisterRequest{Image: repo.Images[1], At: day(1)})
	if got := sq.Registered(); len(got) != 2 {
		t.Fatalf("registered %v", got)
	}
	n := sq.GarbageCollect(day(30))
	// Each of the 3 volumes (1 sc + 2 cc) holds 2 snapshots; GC destroys
	// all but the latest per volume.
	if n != 3 {
		t.Fatalf("destroyed %d snapshots, want 3", n)
	}
}

func TestRegistrationUnderPropagationSchemes(t *testing.T) {
	for _, p := range []Propagation{Multicast, UnicastFanout, Pipeline} {
		sq, cl, repo, _ := testDeployment(t, 3, paperGeometry, func(s *setup) { s.Propagation = p })
		rep, err := sq.Register(context.Background(), RegisterRequest{Image: repo.Images[0], At: day(0)})
		if err != nil {
			t.Fatalf("propagation %v: %v", p, err)
		}
		for _, n := range cl.Compute {
			ccv, err := sq.CCVolume(n.ID)
			if err != nil {
				t.Fatalf("propagation %v: %v", p, err)
			}
			if !ccv.HasObject(repo.Images[0].ID) {
				t.Fatalf("propagation %v: replica missing", p)
			}
		}
		if rep.XferSec <= 0 {
			t.Fatalf("propagation %v: no transfer time", p)
		}
	}
}
