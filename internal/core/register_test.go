package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/gossip"
)

func TestRegistrationCompressesEachNewBlockOnce(t *testing.T) {
	// A deployment's codec work is its registrations' diffs: every block
	// no volume held before is compressed exactly once — by the scVolume's
	// write — and nothing that later moves it to a replica compresses it
	// again: not preparing the stream, not a clean leg's receive, not a
	// leg torn mid-apply, not an incremental SyncNode, not a full
	// re-replication. And however a replica got a block, it holds the
	// scVolume's copy of the payload, not one of its own.
	codec := countedGzip()
	sq, cl, repo, _ := testDeployment(t, 4, withPeers, withFaults(fault.Plan{Seed: 1}), func(s *setup) {
		s.Volume.Codec = codec.Name()
	})
	bg := context.Background()
	start := codec.compressed.Load()
	next := 0
	register := func(wantNodes int) RegisterReport {
		t.Helper()
		im := repo.Images[next]
		rep, err := sq.Register(bg, RegisterRequest{Image: im, At: day(next)})
		next++
		if err != nil || rep.Nodes != wantNodes {
			t.Fatalf("register %s: %+v, %v", im.ID, rep, err)
		}
		return rep
	}
	// compressedOnce holds after every step; replicas names the nodes in
	// step with the scVolume, which must alias every payload they store.
	compressedOnce := func(step string, replicas ...string) int64 {
		t.Helper()
		unique := sq.SCVolume().Stats().UniqueBlocks
		if got := codec.compressed.Load() - start; got != unique {
			t.Fatalf("%s: %d Compress calls for %d unique blocks", step, got, unique)
		}
		for _, id := range replicas {
			ccv, err := sq.CCVolume(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := ccv.Stats().UniqueBlocks; got != unique {
				t.Fatalf("%s: %s holds %d unique blocks, the scVolume %d", step, id, got, unique)
			}
			// One copy of each payload: every replica slot aliases the
			// scVolume's.
			if got := ccv.StoreStats().Shared; got != unique {
				t.Fatalf("%s: %s aliases %d payloads, want all %d", step, id, got, unique)
			}
		}
		return unique
	}
	syncNode := func(id string, want SyncMode) {
		t.Helper()
		rep, err := sq.SyncNode(bg, id)
		if err != nil || rep.Mode != want {
			t.Fatalf("sync %s: %+v, %v; want mode %s", id, rep, err, want)
		}
	}
	all := make([]string, len(cl.Compute))
	for i, n := range cl.Compute {
		all[i] = n.ID
	}

	for next < 8 {
		im := repo.Images[next].ID
		register(len(all))
		compressedOnce("after " + im)
	}
	if compressedOnce("eight registrations", all...) == 0 {
		t.Fatal("nothing was stored: nothing measured")
	}

	// Offline across two registrations, then the diff since its snapshot.
	sq.SetOnline(all[0], false)
	register(len(all) - 1)
	register(len(all) - 1)
	sq.SetOnline(all[0], true)
	syncNode(all[0], SyncIncremental)
	compressedOnce("incremental sync", all...)

	// Offline while retention destroys the snapshot it would catch up
	// from: the whole scVolume, into a fresh replica.
	sq.SetOnline(all[1], false)
	register(len(all) - 1)
	if sq.GarbageCollect(day(next+30)) == 0 {
		t.Fatal("retention destroyed nothing")
	}
	sq.SetOnline(all[1], true)
	syncNode(all[1], SyncFull)
	compressedOnce("full re-replication", all...)

	// One leg torn mid-apply (Torn shares the crash budget: the first
	// destination tears, the others lose the stream on every attempt and
	// are left lagging), rolled back on restart, healed by sync.
	setFaults(sq, fault.Plan{Seed: 1, Torn: 1, MaxCrashes: 1}, t)
	rep := register(0)
	if len(rep.Torn) != 1 || len(rep.Lagging) != len(all)-1 {
		t.Fatalf("want one torn apply and the rest lagging: %+v", rep)
	}
	compressedOnce("torn leg")
	sq.SetFaults(nil)
	if rec, err := sq.RestartNode(rep.Torn[0], day(next)); err != nil || !rec.RolledBack {
		t.Fatalf("restart of the torn node: %+v, %v", rec, err)
	}
	for _, id := range all {
		syncNode(id, SyncIncremental)
	}
	compressedOnce("healed", all...)
}

// reconcile does for every node that may advertise — and, with
// syncedOnly, is in step with the scVolume — what a registration used to
// do for each replica it synced: a full SetHoldings reconciliation of
// the index against the replica's object set. (Nodes the announce guard
// would retract instead — damaged, cut off — were retracted when that
// happened.)
func reconcile(sq *Squirrel, syncedOnly bool) {
	sq.state.Lock()
	defer sq.state.Unlock()
	for _, r := range sq.order {
		if r.online && len(r.damaged) == 0 && !sq.cl.Unreachable(r.node.ID) &&
			!(syncedOnly && r.lagging) {
			sq.announceHoldingsLocked(r)
		}
	}
}

func TestIncrementalAnnouncementsMatchReconciliation(t *testing.T) {
	// Register tells the index only the (image, node) pairs it created.
	// Two deployments take the same seeded schedule of registrations,
	// deregistrations, dropped replicas, crashes, restarts, rot, scrubs,
	// resilvers, cuts, heals, syncs and GC; the second additionally
	// reconciles in full. On the central index it does so for every node
	// after every step, so the index must at all times be exactly what
	// reconciliation computes. A gossip view is allowed to lag the truth
	// (a restarted owner's view refills over rounds), so there the second
	// deployment reconciles where registration used to — the replicas a
	// registration just synced — and the two must still never differ.
	// Every lookup of every image is compared after every step.
	for _, mode := range []IndexMode{IndexCentral, IndexGossip} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				build := func() (*Squirrel, []string, []*corpus.Image) {
					// No round runs, so no lease expires mid-test.
					sq, cl, repo, _ := testDeployment(t, 5, withPeers, withFaults(fault.Plan{Seed: seed, Rot: 0.05}),
						withIndex(mode), withGossip(gossip.Config{Seed: seed}))
					var ids []string
					for _, n := range cl.Compute {
						ids = append(ids, n.ID)
					}
					return sq, ids, repo.Images[:12]
				}
				inc, nodes, ims := build()
				full, _, _ := build()

				bg := context.Background()
				rng := rand.New(rand.NewSource(seed))
				next, cut := 0, false
				rotted := map[string]bool{} // once per node: the lane's flips are fixed, so a second pass would undo the first
				for step := 0; step < 80; step++ {
					at := day(step)
					node := nodes[rng.Intn(len(nodes))]
					im := ims[rng.Intn(len(ims))]
					var op func(sq *Squirrel) error
					registered := false
					switch k := rng.Intn(12); {
					case k < 4 && next < len(ims):
						im = ims[next]
						next++
						registered = true
						op = func(sq *Squirrel) error {
							_, err := sq.Register(bg, RegisterRequest{Image: im, At: at})
							return err
						}
					case k == 4:
						op = func(sq *Squirrel) error { sq.Deregister(im.ID); return nil } // unknown image: no-op
					case k == 5:
						op = func(sq *Squirrel) error { return sq.DropReplica(node, im.ID) }
					case k == 6:
						op = func(sq *Squirrel) error { return sq.CrashNode(node, at) }
					case k == 7:
						op = func(sq *Squirrel) error { _, err := sq.RestartNode(node, at); return err }
					case k == 8 && !rotted[node]:
						rotted[node] = true
						op = func(sq *Squirrel) error {
							if _, err := sq.InjectRot(node); err != nil {
								return err
							}
							_, err := sq.ScrubNode(bg, node, at)
							return err
						}
					case k == 9:
						op = func(sq *Squirrel) error { _, err := sq.ResilverAll(bg, at); return err }
					case k == 10:
						if cut = !cut; cut {
							op = func(sq *Squirrel) error { return sq.PartitionNodes(node) }
						} else {
							op = func(sq *Squirrel) error { _, err := sq.HealPartition(); return err }
						}
					default:
						op = func(sq *Squirrel) error {
							for _, id := range sq.Lagging() {
								if sq.isOnline(sq.replicas[id]) {
									sq.SyncNode(bg, id) // a cut-off node stays lagging
								}
							}
							sq.GarbageCollect(at)
							return nil
						}
					}
					if op == nil {
						continue
					}
					errInc, errFull := op(inc), op(full)
					if (errInc == nil) != (errFull == nil) {
						t.Fatalf("step %d: the deployments diverged: %v vs %v", step, errInc, errFull)
					}
					if mode == IndexCentral {
						reconcile(full, false)
					} else if registered {
						reconcile(full, true)
					}
					for _, im := range ims {
						for _, from := range append([]string{""}, nodes...) {
							got, want := inc.IndexHolders(im.ID, from), full.IndexHolders(im.ID, from)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("step %d: holders of %s seen from %q: incremental %v, reconciled %v",
									step, im.ID, from, got, want)
							}
						}
					}
				}
				if next < 6 {
					t.Fatalf("schedule registered only %d images", next)
				}
			})
		}
	}
}
