package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gossip"
)

// gossipTruth is the authoritative holder set for obj: online,
// undamaged nodes whose replica physically holds it. Lagging nodes
// count — they advertise what they do hold — but nothing behind an open
// cut or below the damage bar does.
func gossipTruth(sq *Squirrel, obj string) []string {
	sq.state.RLock()
	defer sq.state.RUnlock()
	var out []string
	for _, r := range sq.order {
		if id := r.node.ID; r.online && len(r.damaged) == 0 && !sq.cl.Unreachable(id) && r.ccv.HasObject(obj) {
			out = append(out, id)
		}
	}
	return out
}

// gossipConverged reports whether every online node's index lookup of
// every registered image matches the authoritative holder set exactly:
// zero live replicas unadvertised, zero dead or dropped replicas still
// served.
func gossipConverged(sq *Squirrel) (bool, string) {
	sq.state.RLock()
	var queriers []string
	for _, r := range sq.order {
		if r.online {
			queriers = append(queriers, r.node.ID)
		}
	}
	sq.state.RUnlock()
	for _, obj := range sq.Registered() {
		truth := gossipTruth(sq, obj)
		for _, q := range queriers {
			if got := sq.IndexHolders(obj, q); !reflect.DeepEqual(got, truth) {
				return false, fmt.Sprintf("%s from %s: lookup %v, truth %v", obj, q, got, truth)
			}
		}
	}
	return true, ""
}

// TestGossipChurnSoak is the acceptance soak for the decentralized
// index: with cfg.Index = gossip, a seeded mix of crash + partition +
// replica-drop + mid-cut registration + restart events leaves divergent
// views, and after the last event the index must converge — every
// online node's lookup of every image exactly equal to the live holder
// truth — within a deterministic round bound. The bound is lease decay
// (TTL rounds, the crashed node's entries aging out everywhere) plus
// anti-entropy spread; it is asserted, not observed.
func TestGossipChurnSoak(t *testing.T) {
	const (
		ttlRounds = 6
		// convergeBound is the asserted claim: TTL rounds of lease decay
		// plus four rounds of refresh/anti-entropy spread.
		convergeBound = ttlRounds + 4
	)
	for _, seed := range []int64{1337, 31337, 777} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plan := fault.Plan{Seed: seed, GossipDrop: 0.25}
			sq, cl, repo, _ := testDeployment(t, 8, withPeers, withFaults(plan),
				withIndex(IndexGossip), withGossip(gossip.Config{Seed: seed, TTL: ttlRounds, Fanout: 2, Owners: 2}))
			bg := context.Background()
			rounds := func(n int) {
				t.Helper()
				if _, err := sq.GossipTicks(n); err != nil {
					t.Fatal(err)
				}
			}
			var ids []string
			for _, n := range cl.Compute {
				ids = append(ids, n.ID)
			}
			sort.Strings(ids)
			inj := sq.injector()

			// waitConverged runs rounds until the index converges or the
			// bound is spent, returning how many it used.
			waitConverged := func(bound int) (int, bool, string) {
				t.Helper()
				var why string
				for used := 0; used <= bound; used++ {
					var ok bool
					if ok, why = gossipConverged(sq); ok {
						return used, true, ""
					}
					rounds(1)
				}
				return bound, false, why
			}

			for i := 0; i < 3; i++ {
				mustRegister(t, sq, repo.Images[i], day(i))
			}
			// Even the clean announcements cross a lossy gossip plane
			// (25% message drop); anti-entropy repairs them within the
			// bound.
			if used, ok, why := waitConverged(convergeBound); !ok {
				t.Fatalf("not converged after clean registrations: %s", why)
			} else if used > 0 {
				t.Logf("seed %d: initial spread repaired dropped announcements in %d rounds", seed, used)
			}

			// Event 1: two nodes crash cold. Nobody retracts their
			// leases. One restarts later; the other stays dead, so its
			// entries can only leave the index by lease expiry — the
			// convergence bound must cover a full TTL of decay.
			picks := inj.PartitionPick("churn-crash", ids, 2)
			crashed, deadForGood := picks[0], picks[1]
			if err := sq.CrashNode(crashed, day(3)); err != nil {
				t.Fatal(err)
			}
			if err := sq.CrashNode(deadForGood, day(3)); err != nil {
				t.Fatal(err)
			}
			rounds(2)

			// Event 2: a minority cut opens among the survivors, and a
			// registration lands while it is open — the minority misses
			// it and goes lagging.
			var up []string
			for _, id := range ids {
				if id != crashed && id != deadForGood {
					up = append(up, id)
				}
			}
			minority := inj.PartitionPick("churn-cut", up, 2)
			if err := sq.PartitionNodes(minority...); err != nil {
				t.Fatal(err)
			}
			mustRegister(t, sq, repo.Images[3], day(4))
			// Event 3: a majority replica is dropped mid-cut (capacity
			// reclaim) — its tombstone must beat the old lease.
			var dropOn string
			for _, id := range up {
				if id != minority[0] && id != minority[1] {
					dropOn = id
					break
				}
			}
			if err := sq.DropReplica(dropOn, repo.Images[0].ID); err != nil {
				t.Fatal(err)
			}
			rounds(3)

			// Event 4: everything heals at once — cut closes, crashed
			// node restarts, lagging nodes sync. This is the worst case
			// the bound must cover: simultaneous crash recovery,
			// partition reconciliation, and ownership hand-off.
			heal, err := sq.HealPartition()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sq.RestartNode(crashed, day(5)); err != nil {
				t.Fatal(err)
			}
			for _, id := range append(append([]string(nil), heal.Lagging...), crashed) {
				if _, err := sq.SyncNode(bg, id); err != nil {
					t.Fatal(err)
				}
			}

			// Events over. The index must converge within the bound.
			used, converged, why := waitConverged(convergeBound)
			if !converged {
				t.Fatalf("seed %d: no convergence within %d rounds of the last event: %s",
					seed, convergeBound, why)
			}
			t.Logf("seed %d: converged %d rounds after the last event", seed, used)

			// Stability: a converged index stays converged as rounds keep
			// running (no oscillation from late tombstones or re-adverts).
			rounds(2)
			if ok, why := gossipConverged(sq); !ok {
				t.Fatalf("seed %d: convergence did not hold: %s", seed, why)
			}
			// Zero expired-lease entries survive in live views once
			// converged rounds have pruned.
			if stale := sq.Stats().GossipStale; stale != 0 {
				t.Fatalf("seed %d: %d expired leases still stored in live views", seed, stale)
			}
			if src := sq.Stats().IndexSource; src != "gossip" {
				t.Fatalf("IndexSource = %q, want gossip", src)
			}

			// The decentralized view must actually serve the boot path:
			// manufacture a cold miss and watch the peer exchange fetch
			// through gossip lookups.
			if err := sq.DropReplica(ids[0], repo.Images[1].ID); err != nil {
				t.Fatal(err)
			}
			rep, err := sq.Boot(bg, BootRequest{Image: repo.Images[1].ID, Node: ids[0], Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.PeerBytes == 0 {
				t.Fatalf("cold boot served no peer bytes through the gossip index: %+v", rep)
			}
		})
	}
}

// TestGossipIndexBootParity: the same cold-miss boot serves peer bytes
// whichever index implementation resolves the holders, and the gossip
// run keeps breakers and serve slots on the same peer.Ledger.
func TestGossipIndexBootParity(t *testing.T) {
	boot := func(mode IndexMode) BootReport {
		sq, _, repo, _ := testDeployment(t, 6, withPeers, withFaults(fault.Plan{Seed: 7}),
			withIndex(mode), withGossip(gossip.Config{Seed: 7}))
		im := repo.Images[0]
		mustRegister(t, sq, im, day(0))
		if err := sq.DropReplica("node03", im.ID); err != nil {
			t.Fatal(err)
		}
		rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node03", Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(sq.Stats().PeerLoads) == 0 {
			t.Fatalf("mode %s: no serve-load accounting on the peer ledger", mode)
		}
		return rep
	}
	central := boot(IndexCentral)
	decentralized := boot(IndexGossip)
	if central.PeerBytes == 0 || decentralized.PeerBytes == 0 {
		t.Fatalf("peer bytes: central %d, gossip %d — both must serve the miss",
			central.PeerBytes, decentralized.PeerBytes)
	}
	if central.PeerBytes != decentralized.PeerBytes {
		t.Fatalf("peer bytes diverge across index modes: central %d, gossip %d",
			central.PeerBytes, decentralized.PeerBytes)
	}
}

// TestGossipLeaseOutlivesWallTime: a lease lives TTL rounds, so with a
// one-round TTL and no round run, wall time passing between
// registration and boot cannot expire it — the miss is still
// peer-served. (When leases expired on time.Now, the TTL below was one
// nanosecond and the boot read every byte from the PFS.)
func TestGossipLeaseOutlivesWallTime(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 6, withPeers, withFaults(fault.Plan{Seed: 7}),
		withIndex(IndexGossip), withGossip(gossip.Config{Seed: 7, TTL: 1}))
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	time.Sleep(5 * time.Millisecond)
	if err := sq.DropReplica("node03", im.ID); err != nil {
		t.Fatal(err)
	}
	rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node03", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeerBytes == 0 || rep.NetworkBytes != 0 {
		t.Fatalf("cold boot not peer-served after wall time passed: %d peer bytes, %d PFS bytes",
			rep.PeerBytes, rep.NetworkBytes)
	}
}
