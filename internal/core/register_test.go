package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/gossip"
)

func TestRegistrationCompressesEachNewBlockOnce(t *testing.T) {
	// A registration's codec work is its diff's: every block no volume
	// held before is compressed exactly once — by the scVolume's write —
	// and neither preparing the stream nor any of the replicas' receives
	// compresses anything. (Prepare used to gzip every shipped block a
	// second time.)
	codec := countedGzip()
	sq, cl, repo := resilienceDeployment(t, 4, fault.Plan{Seed: 1}, func(cfg *Config) {
		cfg.Volume.Codec = codec.Name()
	})
	start := codec.compressed.Load()
	var unique int64
	for i, im := range repo.Images[:8] {
		rep, err := sq.Register(context.Background(), RegisterRequest{Image: im, At: day(i)})
		if err != nil || rep.Nodes != len(cl.Compute) {
			t.Fatalf("register %s: %+v, %v", im.ID, rep, err)
		}
		now := sq.SCVolume().Stats().UniqueBlocks
		if got, want := codec.compressed.Load()-start, now; got != want {
			t.Fatalf("after %s: %d Compress calls for %d unique blocks (%d new)", im.ID, got, want, now-unique)
		}
		unique = now
	}
	if unique == 0 {
		t.Fatal("nothing was stored: nothing measured")
	}
	for _, n := range cl.Compute {
		ccv, err := sq.CCVolume(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := ccv.Stats().UniqueBlocks; got != unique {
			t.Fatalf("%s holds %d unique blocks, the scVolume %d", n.ID, got, unique)
		}
		// One copy of each payload: every replica slot aliases the
		// scVolume's.
		if got := ccv.StoreStats().Shared; got != unique {
			t.Fatalf("%s aliases %d payloads, want all %d", n.ID, got, unique)
		}
	}
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
	ids := make([]string, 0, len(sq.cc))
	for id := range sq.cc {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if sq.online[id] && len(sq.damaged[id]) == 0 && !sq.cl.Unreachable(id) &&
			!(syncedOnly && sq.lagging[id]) {
			sq.announceHoldingsLocked(id)
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
				build := func() (*Squirrel, []string) {
					clk := newStepClock() // never advanced: no lease expires mid-test
					sq, cl, _ := resilienceDeployment(t, 5, fault.Plan{Seed: seed, Rot: 0.05}, func(cfg *Config) {
						cfg.Index = mode
						cfg.Gossip = gossip.Config{Seed: seed, Clock: clk.Now}
					})
					var ids []string
					for _, n := range cl.Compute {
						ids = append(ids, n.ID)
					}
					return sq, ids
				}
				inc, nodes := build()
				full, _ := build()
				_, _, repo := resilienceDeployment(t, 1, fault.Plan{}, nil)
				ims := repo.Images[:12]

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
								if sq.isOnline(id) {
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
