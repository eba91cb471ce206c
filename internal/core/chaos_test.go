package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/fault"
)

// chaosDeployment builds a deployment with a fault injector wired in.
func chaosDeployment(t testing.TB, computeNodes int, plan fault.Plan) (*Squirrel, *cluster.Cluster, *corpus.Repository, *fault.Injector) {
	return deploymentWith(t, computeNodes, func(c *Config) { c.Faults = seeded(t, plan) })
}

// TestChaosSoakConvergence is the acceptance soak: a seeded fault plan
// with ≥20% multicast loss, stream corruption/truncation, and two
// mid-transfer node crashes across 12 registrations. Registrations must
// never error on replica-side faults, and after recovery every compute
// node must converge to the latest scVolume snapshot via retry/repair or
// lagging→SyncNode healing.
func TestChaosSoakConvergence(t *testing.T) {
	plan := fault.Plan{
		Seed: 1337, Drop: 0.25, Truncate: 0.08, Corrupt: 0.15,
		Crash: 0.06, MaxCrashes: 2,
	}
	sq, cl, repo, inj := chaosDeployment(t, 10, plan)

	const regs = 12
	var faults, retries int
	var repairBytes int64
	for i := 0; i < regs; i++ {
		rep, err := sq.Register(context.Background(), RegisterRequest{Image: repo.Images[i], At: day(i)})
		if err != nil {
			t.Fatalf("registration %d must tolerate replica faults: %v", i, err)
		}
		faults += rep.Faults
		retries += rep.Retries
		repairBytes += rep.RepairBytes
		if rep.Retries > 0 && rep.RepairSec <= 0 {
			t.Fatalf("retries without backoff accounting: %+v", rep)
		}
	}
	if faults == 0 || retries == 0 {
		t.Fatalf("chaos plan injected nothing (faults=%d retries=%d)", faults, retries)
	}
	if repairBytes == 0 {
		t.Fatal("no unicast repair traffic despite stream loss")
	}
	c := inj.Counters().Snapshot()
	for _, k := range []string{"fault.drop", "fault.truncate", "fault.corrupt"} {
		if c[k] == 0 {
			t.Fatalf("no %s injected: %v", k, c)
		}
	}
	if inj.Crashes() != 2 {
		t.Fatalf("crashes = %d, want the full budget of 2", inj.Crashes())
	}

	// Recovery: crashed nodes restart, and the first boot on each node
	// heals any lagging replica through SyncNode.
	for _, n := range cl.Compute {
		if err := sq.SetOnline(n.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	want := sq.SCVolume().LatestSnapshot().Name
	latest := repo.Images[regs-1]
	for _, n := range cl.Compute {
		br, err := sq.Boot(context.Background(), BootRequest{Image: latest.ID, Node: n.ID, Verify: true})
		if err != nil {
			t.Fatalf("boot on %s after chaos: %v", n.ID, err)
		}
		if !br.Warm {
			t.Fatalf("%s should boot warm once healed", n.ID)
		}
		ccv, _ := sq.CCVolume(n.ID)
		snap := ccv.LatestSnapshot()
		if snap == nil || snap.Name != want {
			t.Fatalf("%s did not converge to %s", n.ID, want)
		}
		for i := 0; i < regs; i++ {
			if !ccv.HasObject(repo.Images[i].ID) {
				t.Fatalf("%s missing cache %s", n.ID, repo.Images[i].ID)
			}
		}
	}
	ds := sq.Stats()
	if ds.LaggingNodes != 0 || ds.StaleReplicas != 0 {
		t.Fatalf("deployment not converged: %+v", ds)
	}
}

// TestRegisterDegradesToLagging: under total stream loss the registration
// still succeeds, every replica is marked lagging, and the next boot on a
// lagging node heals it via full re-replication.
func TestRegisterDegradesToLagging(t *testing.T) {
	sq, _, repo, _ := chaosDeployment(t, 4, fault.Plan{Seed: 2, Drop: 1})
	rep, err := sq.Register(context.Background(), RegisterRequest{Image: repo.Images[0], At: day(0)})
	if err != nil {
		t.Fatalf("total loss must not fail the registration: %v", err)
	}
	if rep.Nodes != 0 || len(rep.Lagging) != 4 {
		t.Fatalf("want 0 synced / 4 lagging, got %+v", rep)
	}
	if rep.Retries != 4*DefaultRepairPolicy().MaxAttempts {
		t.Fatalf("retries %d, want full budget per node", rep.Retries)
	}
	if got := len(sq.Lagging()); got != 4 {
		t.Fatalf("Lagging() = %d nodes", got)
	}
	if ds := sq.Stats(); ds.LaggingNodes != 4 {
		t.Fatalf("stats lagging %d", ds.LaggingNodes)
	}
	// A lagging node is skipped by the next registration's propagation.
	rep2, err := sq.Register(context.Background(), RegisterRequest{Image: repo.Images[1], At: day(1)})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Nodes != 0 || rep2.Faults != 0 {
		t.Fatalf("lagging nodes must be skipped, got %+v", rep2)
	}
	// Boot on a lagging node heals it first (full resync: it has no
	// snapshot at all), then boots warm.
	br, err := sq.Boot(context.Background(), BootRequest{Image: repo.Images[0].ID, Node: "node01", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !br.Healed || !br.Warm {
		t.Fatalf("boot should heal and go warm: %+v", br)
	}
	if got := len(sq.Lagging()); got != 3 {
		t.Fatalf("healed node still lagging? %v", sq.Lagging())
	}
}

// TestCrashMarksNodeOfflineAndLagging: a mid-transfer crash takes the
// node down; after restart its first boot heals it.
func TestCrashMarksNodeOfflineAndLagging(t *testing.T) {
	sq, _, repo, inj := chaosDeployment(t, 3, fault.Plan{Seed: 3, Crash: 1, MaxCrashes: 1})
	rep, err := sq.Register(context.Background(), RegisterRequest{Image: repo.Images[0], At: day(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Crashed) != 1 {
		t.Fatalf("want exactly one crash, got %+v", rep)
	}
	if inj.Crashes() != 1 {
		t.Fatalf("crash budget misaccounted: %d", inj.Crashes())
	}
	crashed := rep.Crashed[0]
	if _, err := sq.Boot(context.Background(), BootRequest{Image: repo.Images[0].ID, Node: crashed, Verify: false}); !errors.Is(err, ErrNodeOffline) {
		t.Fatalf("crashed node must be offline: %v", err)
	}
	if err := sq.SetOnline(crashed, true); err != nil {
		t.Fatal(err)
	}
	br, err := sq.Boot(context.Background(), BootRequest{Image: repo.Images[0].ID, Node: crashed, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !br.Healed || !br.Warm {
		t.Fatalf("restarted node should heal on first boot: %+v", br)
	}
}

// TestRegisterRollbackOnStorageFailure: a storage-side failure after the
// cache object is written rolls the scVolume back so a retry starts
// clean instead of hitting duplicate-object state.
func TestRegisterRollbackOnStorageFailure(t *testing.T) {
	sq, _, repo := deployment(t, 2)
	im := repo.Images[0]
	// Sabotage: occupy the snapshot name the next registration will take.
	colliding := fmt.Sprintf("cVol@%06d-%s", 1, im.ID)
	if _, err := sq.SCVolume().Snapshot(colliding, day(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sq.Register(context.Background(), RegisterRequest{Image: im, At: day(0)}); err == nil {
		t.Fatal("registration should fail on snapshot collision")
	}
	if sq.SCVolume().HasObject(im.ID) {
		t.Fatal("failed registration leaked the cache object")
	}
	if got := sq.Registered(); len(got) != 0 {
		t.Fatalf("failed registration recorded the image: %v", got)
	}
	// Clear the sabotage; the retry succeeds from clean state.
	if err := sq.SCVolume().DeleteSnapshot(colliding); err != nil {
		t.Fatal(err)
	}
	rep, err := sq.Register(context.Background(), RegisterRequest{Image: im, At: day(0)})
	if err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	if rep.Nodes != 2 {
		t.Fatalf("retry propagated to %d nodes", rep.Nodes)
	}
}

// TestRegisterClearsLeftoverObject: a stale cache object from a crashed
// earlier attempt (written but never registered) must not break a retry.
func TestRegisterClearsLeftoverObject(t *testing.T) {
	sq, _, repo := deployment(t, 2)
	im := repo.Images[0]
	if _, err := sq.SCVolume().WriteObject(im.ID, im.CacheReader()); err != nil {
		t.Fatal(err)
	}
	rep, err := sq.Register(context.Background(), RegisterRequest{Image: im, At: day(0)})
	if err != nil {
		t.Fatalf("retry over leftover object: %v", err)
	}
	if rep.Nodes != 2 || rep.CacheBytes != im.CacheSize() {
		t.Fatalf("retry report %+v", rep)
	}
}

// TestSyncNewbornNode: a node that was offline from before the first
// registration has no local snapshot and must full-replicate.
func TestSyncNewbornNode(t *testing.T) {
	sq, _, repo := deployment(t, 3)
	sq.SetOnline("node02", false) // offline from birth
	a, b := repo.Images[0], repo.Images[1]
	mustRegister(t, sq, a, day(0))
	mustRegister(t, sq, b, day(1))
	sq.SetOnline("node02", true)
	rep, err := sq.SyncNode(bg, "node02")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != SyncFull {
		t.Fatalf("newborn sync mode %v, want full", rep.Mode)
	}
	ccv, _ := sq.CCVolume("node02")
	for _, id := range []string{a.ID, b.ID} {
		if !ccv.HasObject(id) {
			t.Fatalf("newborn sync missing %s", id)
		}
	}
	br, err := sq.Boot(context.Background(), BootRequest{Image: b.ID, Node: "node02", Verify: true})
	if err != nil || !br.Warm {
		t.Fatalf("post-sync boot: warm=%v err=%v", br.Warm, err)
	}
}

// TestSyncRacesConcurrentRegister: SyncNode looping against a stream of
// registrations must stay race-free (run under -race) and converge.
func TestSyncRacesConcurrentRegister(t *testing.T) {
	sq, _, repo := deployment(t, 3)
	mustRegister(t, sq, repo.Images[0], day(0))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := sq.SyncNode(bg, "node02"); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 1; i <= 5; i++ {
		mustRegister(t, sq, repo.Images[i], day(i))
	}
	close(stop)
	wg.Wait()
	if _, err := sq.SyncNode(bg, "node02"); err != nil {
		t.Fatal(err)
	}
	want := sq.SCVolume().LatestSnapshot().Name
	ccv, _ := sq.CCVolume("node02")
	if snap := ccv.LatestSnapshot(); snap == nil || snap.Name != want {
		t.Fatalf("node02 did not converge to %s", want)
	}
}

// TestConcurrentOperations exercises Register/Boot/SyncNode/SetOnline/
// Stats from many goroutines at once; the race detector is the oracle.
func TestConcurrentOperations(t *testing.T) {
	sq, cl, repo := deployment(t, 4)
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
			for j := 0; j < 5; j++ {
				if _, err := sq.Boot(context.Background(), BootRequest{Image: repo.Images[0].ID, Node: id, Verify: true}); err != nil {
					t.Errorf("boot on %s: %v", id, err)
					return
				}
				sq.Stats()
				sq.Registered()
				sq.Lagging()
				if _, err := sq.SyncNode(bg, id); err != nil {
					t.Errorf("sync %s: %v", id, err)
					return
				}
			}
		}(n.ID)
	}
	wg.Wait()
	// Every image must have reached every node (via propagation or sync).
	for _, n := range cl.Compute {
		if _, err := sq.SyncNode(bg, n.ID); err != nil {
			t.Fatal(err)
		}
		ccv, _ := sq.CCVolume(n.ID)
		for i := 0; i <= 4; i++ {
			if !ccv.HasObject(repo.Images[i].ID) {
				t.Fatalf("%s missing %s after concurrent ops", n.ID, repo.Images[i].ID)
			}
		}
	}
}
