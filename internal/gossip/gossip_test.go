package gossip

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fault"
)

func nodeIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cc%02d", i+1)
	}
	return out
}

// cutLinks is a Links with an explicit minority cut, mirroring
// cluster.Cluster's reachability model.
type cutLinks struct {
	mu  sync.Mutex
	cut map[string]bool
}

func (c *cutLinks) Reachable(a, b string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cut[a] == c.cut[b]
}

func (c *cutLinks) partition(ids ...string) {
	c.mu.Lock()
	c.cut = map[string]bool{}
	for _, id := range ids {
		c.cut[id] = true
	}
	c.mu.Unlock()
}

func (c *cutLinks) heal() {
	c.mu.Lock()
	c.cut = nil
	c.mu.Unlock()
}

// TestLeaseExpiryFakeClock is the lease state machine on the round
// clock: a holder that goes down is still served for TTL-1 rounds, is
// gone from every lookup and pruned from every view at round TTL, and
// one refresh buys exactly one more TTL — no more.
func TestLeaseExpiryFakeClock(t *testing.T) {
	const ttl = 10
	d := New(Config{Seed: 1, TTL: ttl}, nodeIDs(4), nil)
	// decay ticks TTL rounds with cc01 down, checking it is served until
	// the last one and neither served nor stored after it.
	decay := func(phase string) {
		t.Helper()
		d.MarkDown("cc01") // nobody refreshes its lease any more
		for i := 1; i <= ttl; i++ {
			d.Tick()
			got := d.Lookup("cc02", "imgA")
			if i < ttl && !reflect.DeepEqual(got, []string{"cc01"}) {
				t.Fatalf("%s: lease gone after %d of %d rounds: Lookup = %v", phase, i, ttl, got)
			}
			if i == ttl && len(got) != 0 {
				t.Fatalf("%s: lease outlived its %d rounds: Lookup = %v", phase, ttl, got)
			}
		}
		if stale := d.StaleTotal(); stale != 0 {
			t.Fatalf("%s: round %d left %d expired entries unpruned", phase, ttl, stale)
		}
	}

	d.SetHoldings("cc01", []string{"imgA"})
	if got := d.Lookup("cc02", "imgA"); !reflect.DeepEqual(got, []string{"cc01"}) {
		t.Fatalf("fresh lease invisible: Lookup = %v", got)
	}
	decay("first lease")

	// One refresh, and the holder is down again before the next round.
	d.MarkUp("cc01")
	d.SetHoldings("cc01", []string{"imgA"})
	decay("refreshed lease")
}

// TestTickRefreshExtendsLease: a holder that stays up never loses its
// advertisement — each round's refresh pushes expiry out one TTL.
func TestTickRefreshExtendsLease(t *testing.T) {
	d := New(Config{Seed: 2, TTL: 3}, nodeIDs(4), nil)
	d.SetHoldings("cc03", []string{"imgB"})
	for i := 0; i < 10; i++ { // 10 rounds, far past one TTL
		d.Tick()
		if got := d.Lookup("cc01", "imgB"); !reflect.DeepEqual(got, []string{"cc03"}) {
			t.Fatalf("round %d: refreshed holder lost: Lookup = %v", i+1, got)
		}
	}
}

func TestWithdrawTombstone(t *testing.T) {
	d := New(Config{Seed: 3, TTL: 30}, nodeIDs(4), nil)
	d.SetHoldings("cc01", []string{"imgA", "imgB"})
	d.SetHoldings("cc02", []string{"imgA"})
	d.Withdraw("imgA", "cc01")
	if got := d.Lookup("cc03", "imgA"); !reflect.DeepEqual(got, []string{"cc02"}) {
		t.Fatalf("withdrawn advert still served: Lookup = %v", got)
	}
	if got := d.Lookup("cc03", "imgB"); !reflect.DeepEqual(got, []string{"cc01"}) {
		t.Fatalf("withdraw bled across objects: Lookup = %v", got)
	}
	d.WithdrawObject("imgB")
	if got := d.Lookup("cc03", "imgB"); len(got) != 0 {
		t.Fatalf("deregistered object still served: Lookup = %v", got)
	}
	// SetHoldings diff retracts vanished objects the same way.
	d.SetHoldings("cc02", nil)
	if got := d.Lookup("cc03", "imgA"); len(got) != 0 {
		t.Fatalf("diff retraction missed: Lookup = %v", got)
	}
}

// TestCrashLeasesDecayByTTL: nobody retracts a crashed holder's leases;
// they expire on schedule and rounds prune them.
func TestCrashLeasesDecayByTTL(t *testing.T) {
	d := New(Config{Seed: 4, TTL: 5}, nodeIDs(6), nil)
	for _, n := range nodeIDs(6) {
		d.SetHoldings(n, []string{"imgA"})
	}
	d.MarkDown("cc04")
	// Within TTL the dead node's lease is still visible — bounded
	// staleness, the price of no central registry.
	if got := d.Lookup("cc01", "imgA"); len(got) != 6 {
		t.Fatalf("leases vanished at crash instant: Lookup = %v", got)
	}
	// Rounds advance and refresh the live five; the dead lease ages out.
	for i := 0; i < 6; i++ {
		d.Tick()
	}
	want := []string{"cc01", "cc02", "cc03", "cc05", "cc06"}
	if got := d.Lookup("cc01", "imgA"); !reflect.DeepEqual(got, want) {
		t.Fatalf("dead holder outlived its TTL: Lookup = %v, want %v", got, want)
	}
}

// converged reports whether every live node's lookup of every object
// matches the authoritative holdings exactly.
func converged(d *Directory, objs []string) bool {
	d.mu.Lock()
	truth := make(map[string][]string)
	for _, obj := range objs {
		for _, n := range d.aliveSortedLocked() {
			if d.holdings[n][obj] {
				truth[obj] = append(truth[obj], n)
			}
		}
	}
	live := d.aliveSortedLocked()
	d.mu.Unlock()
	for _, obj := range objs {
		for _, q := range live {
			if !reflect.DeepEqual(d.Lookup(q, obj), truth[obj]) {
				return false
			}
		}
	}
	return true
}

// TestOwnerCrashReReplicates: crashing an object's primary owner moves
// ownership to the ring successor, and refresh + anti-entropy re-warm
// the new owner within a couple of rounds.
func TestOwnerCrashReReplicates(t *testing.T) {
	ids := nodeIDs(8)
	// TTL of 4 rounds: the crashed owners are holders too, so their own
	// leases must age out before lookups match the live truth — the
	// convergence bound is TTL rounds for decay plus ~2 for ownership
	// hand-off.
	d := New(Config{Seed: 5, TTL: 4, Fanout: 2}, ids, nil)
	objs := []string{"imgA", "imgB", "imgC", "imgD"}
	for i, n := range ids {
		d.SetHoldings(n, objs[:1+i%len(objs)])
	}
	if !converged(d, objs) {
		t.Fatal("not converged after initial announcements")
	}
	// Crash every object's primary owner in turn (worst case for each).
	owners := map[string]bool{}
	for _, obj := range objs {
		owners[d.Owners(obj)[0]] = true
	}
	for o := range owners {
		d.MarkDown(o)
	}
	rounds := 0
	for ; rounds < 8 && !converged(d, objs); rounds++ {
		d.Tick()
	}
	if !converged(d, objs) {
		t.Fatalf("no convergence within 8 rounds of crashing %d owners", len(owners))
	}
	t.Logf("re-replicated after %d owner crashes in %d rounds", len(owners), rounds)
}

// churnDirectory is the deployment BenchmarkIndexChurn churns: 32 nodes
// each holding a quarter of a 128-object catalog, fanout 3, two owners
// per object.
func churnDirectory(ttl int64) (d *Directory, ids, objs []string) {
	const nodes, objects = 32, 128
	ids = nodeIDs(nodes)
	objs = make([]string, objects)
	for i := range objs {
		objs[i] = fmt.Sprintf("img%03d", i)
	}
	d = New(Config{Seed: 1337, TTL: ttl, Fanout: 3, Owners: 2}, ids, nil)
	for i, n := range ids {
		held := make([]string, 0, objects/4)
		for j := i; j < objects; j += nodes / 8 {
			held = append(held, objs[j])
		}
		d.SetHoldings(n, held)
	}
	return d, ids, objs
}

// TestChurnOwnerCrashConvergence holds the decentralized index's
// convergence bar on the churn benchmark's deployment: crash the busiest
// primary owner plus one more member, then count rounds until every live
// view answers every object exactly. The bound decomposes as TTL rounds
// (the dead holders' own leases must age out) plus ownership hand-off;
// an 8-round TTL keeps the hand-off share visible instead of drowning
// it in lease decay.
func TestChurnOwnerCrashConvergence(t *testing.T) {
	const maxRounds = 12
	d, _, objs := churnDirectory(8)
	d.MarkDown(d.Owners(objs[0])[0])
	d.MarkDown("cc17")
	rounds := 0
	for ; rounds < 64 && !converged(d, objs); rounds++ {
		d.Tick()
	}
	if ok := converged(d, objs); !ok || rounds > maxRounds {
		t.Fatalf("gossip index ran %d rounds after owner crash (converged: %v), bar is <= %d", rounds, ok, maxRounds)
	}
	t.Logf("gossip index converged %d rounds after owner crash, bar is <= %d", rounds, maxRounds)
}

// TestPartitionDivergenceHeals: both sides of a cut keep serving their
// own side's holders; after the heal the views reconcile within a
// bounded number of rounds.
func TestPartitionDivergenceHeals(t *testing.T) {
	links := &cutLinks{}
	ids := nodeIDs(8)
	d := New(Config{Seed: 6, TTL: 20, Fanout: 2}, ids, links)
	for _, n := range ids {
		d.SetHoldings(n, []string{"imgA"})
	}
	links.partition("cc07", "cc08")
	// Registrations land on both sides while the cut is open.
	d.SetHoldings("cc07", []string{"imgA", "imgCut"})
	d.SetHoldings("cc01", []string{"imgA", "imgMaj"})
	for i := 0; i < 3; i++ {
		d.Tick()
	}
	// Minority lookups see minority holders (own view fallback at
	// worst); majority lookups never cross the cut.
	if got := d.Lookup("cc08", "imgCut"); len(got) == 0 {
		t.Fatal("minority cannot see its own side's adverts during the cut")
	}
	links.heal()
	rounds := 0
	for ; rounds < 10 && !converged(d, []string{"imgA", "imgCut", "imgMaj"}); rounds++ {
		d.Tick()
	}
	if !converged(d, []string{"imgA", "imgCut", "imgMaj"}) {
		t.Fatal("views did not reconcile within 10 rounds of the heal")
	}
	t.Logf("healed divergence in %d rounds", rounds)
}

// TestGossipDropLaneBoundedRepair: with a lossy gossip plane the
// exchange still converges — anti-entropy re-sends until every owner
// has the freshest lease — and the drop lane accounts its losses.
func TestGossipDropLaneBoundedRepair(t *testing.T) {
	inj, err := fault.New(fault.Plan{Seed: 1337, GossipDrop: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	ids := nodeIDs(8)
	d := New(Config{Seed: 7, TTL: 30, Fanout: 2}, ids, nil)
	d.SetInjector(inj)
	objs := []string{"imgA", "imgB", "imgC"}
	for i, n := range ids {
		d.SetHoldings(n, objs[:1+i%3])
	}
	rounds := 0
	for ; rounds < 12 && !converged(d, objs); rounds++ {
		d.Tick()
	}
	if !converged(d, objs) {
		t.Fatal("40% message loss defeated anti-entropy within 12 rounds")
	}
	if inj.Counters().Get("fault.gossip_drop") == 0 {
		t.Fatal("lossy plan dropped nothing — lane not wired")
	}
}

// TestDeterministicReplay: the same seed and event script produce
// byte-identical lookups and round accounting.
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]RoundReport, map[string][]string) {
		inj, err := fault.New(fault.Plan{Seed: 99, GossipDrop: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		ids := nodeIDs(6)
		d := New(Config{Seed: 42, TTL: 10, Fanout: 2}, ids, nil)
		d.SetInjector(inj)
		objs := []string{"imgA", "imgB"}
		for i, n := range ids {
			d.SetHoldings(n, objs[:1+i%2])
		}
		d.MarkDown("cc03")
		var reps []RoundReport
		for i := 0; i < 5; i++ {
			reps = append(reps, d.Tick())
		}
		d.MarkUp("cc03")
		d.SetHoldings("cc03", []string{"imgA"})
		for i := 0; i < 3; i++ {
			reps = append(reps, d.Tick())
		}
		looks := make(map[string][]string)
		for _, q := range ids {
			for _, obj := range objs {
				looks[q+"/"+obj] = d.Lookup(q, obj)
			}
		}
		return reps, looks
	}
	r1, l1 := run()
	r2, l2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("round reports diverged:\n%v\n%v", r1, r2)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("lookups diverged:\n%v\n%v", l1, l2)
	}
}

// TestRestartRejoinsEmpty: a restarted node comes back with a wiped
// view and is re-warmed by refresh + anti-entropy, not by ghosts of its
// pre-crash memory.
func TestRestartRejoinsEmpty(t *testing.T) {
	ids := nodeIDs(6)
	d := New(Config{Seed: 8, TTL: 10, Fanout: 2}, ids, nil)
	for _, n := range ids {
		d.SetHoldings(n, []string{"imgA"})
	}
	d.MarkDown("cc02")
	// The world moves on while cc02 is dead: cc05 drops its replica.
	d.Withdraw("imgA", "cc05")
	d.MarkUp("cc02")
	if leases, stale := d.ViewStats("cc02"); leases != 0 || stale != 0 {
		t.Fatalf("restarted view not empty: %d live, %d stale", leases, stale)
	}
	d.SetHoldings("cc02", []string{"imgA"})
	rounds := 0
	for ; rounds < 6 && !converged(d, []string{"imgA"}); rounds++ {
		d.Tick()
	}
	want := []string{"cc01", "cc02", "cc03", "cc04", "cc06"}
	if got := d.Lookup("cc02", "imgA"); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart warm-up wrong: Lookup = %v, want %v", got, want)
	}
}

// pickPeersGeneric is the peer pick as first written, kept as the
// oracle the positional pick is held to: materialise n's candidates —
// live, reachable, not n — and draw Fanout seeded indices from the
// shrinking list. One Reachable call per pair and one slice per caller
// make a round quadratic in the membership, which is why it lives here.
func (d *Directory) pickPeersGeneric(n string, live []string) []string {
	cand := make([]string, 0, len(live))
	for _, p := range live {
		if p != n && d.links.Reachable(n, p) {
			cand = append(cand, p)
		}
	}
	k := d.cfg.Fanout
	if k > len(cand) {
		k = len(cand)
	}
	out := make([]string, 0, k)
	for i := 0; i < k; i++ {
		h := splitmix(fnv1a(n) ^ splitmix(uint64(d.cfg.Seed)^uint64(d.round)*0x9e3779b97f4a7c15^uint64(i)<<32))
		j := int(h % uint64(len(cand)))
		out = append(out, cand[j])
		cand = append(cand[:j], cand[j+1:]...)
	}
	return out
}

// TestPickPeersFullMeshMatchesGeneric holds the one peer pick — sides
// once per round, positional draws over the asker's side — to the
// generic candidate-list loop above: over the default nil links and
// over cutLinks (the cluster's reachability model), with nothing cut, a
// minority cut open and the cut healed, three nodes down, it must draw
// identical peers for every node, every round, fanout by fanout. The
// last case asks for a node that is itself down.
func TestPickPeersFullMeshMatchesGeneric(t *testing.T) {
	ids := nodeIDs(61)
	minority := []string{"cc02", "cc07", "cc19", "cc20", "cc33", "cc48", "cc60"} // cc07 is down
	for _, fanout := range []int{1, 3, 5} {
		cfg := Config{Seed: 7, Fanout: fanout, Owners: 2}
		cut := &cutLinks{}
		for _, tc := range []struct {
			name  string
			links Links
		}{{"nil links", nil}, {"cutLinks", cut}} {
			name, links := tc.name, tc.links
			d := New(cfg, ids, links)
			for _, down := range []string{"cc07", "cc23", "cc61"} {
				d.MarkDown(down)
			}
			for phase, set := range []func(){func() {}, func() { cut.partition(minority...) }, cut.heal} {
				set()
				for round := 0; round < 8; round++ {
					d.Tick()
					d.mu.Lock()
					live := d.aliveSortedLocked()
					sides, of := d.sidesLocked(live)
					if want := 1 + phase%2; links != nil && len(sides) != want {
						t.Fatalf("%s phase %d: %d sides, want %d", name, phase, len(sides), want)
					}
					for i, n := range live {
						got, want := d.pickPeersLocked(n, sides[of[i]]), d.pickPeersGeneric(n, live)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s fanout %d phase %d round %d node %s: picked %v, generic picked %v",
								name, fanout, phase, round, n, got, want)
						}
					}
					// A down node asks too (nothing in Tick does, the pick
					// allows it): its side is the one it can reach.
					for _, side := range sides {
						if d.links.Reachable(side[0], "cc07") {
							got, want := d.pickPeersLocked("cc07", side), d.pickPeersGeneric("cc07", live)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s fanout %d phase %d round %d down asker: picked %v, generic picked %v",
									name, fanout, phase, round, got, want)
							}
						}
					}
					d.mu.Unlock()
				}
			}
		}
	}
}
