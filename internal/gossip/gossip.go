// Package gossip is the decentralized peer content index: each compute
// node advertises its cache-object holdings as TTL'd leases instead of
// reporting to a central registry (Shoal-style dynamic cache
// publishing). Advertisements are placed by consistent hashing — the
// Owners(object) ring successors hold each object's advertisement set,
// so a refresh is O(owners) messages and a lookup is O(1) hops — and
// views reconcile through seeded fanout-k push/pull gossip rounds with
// anti-entropy digest exchange, so divergence after partitions heal and
// nodes restart closes within a bounded number of rounds.
//
// The two robustness invariants the churn soak measures:
//
//   - No stale entry survives past its lease: a lease is valid for TTL
//     rounds after its last refresh, lookups filter expired leases
//     unconditionally, and rounds prune them. A crashed holder's
//     entries decay everywhere within TTL rounds without any
//     coordination.
//   - No live replica stays unadvertised beyond a bounded number of
//     rounds: every round each live node re-advertises its holdings
//     directly to the current owners, and the push/pull exchange
//     repairs owner views that missed refreshes (dropped messages,
//     ownership moved by a crash, partition healed).
//
// Rounds are the directory's only clock. Everything is deterministic in
// (seed, round, call order): peer selection and message drops are pure
// hash functions and a lease expires at a round, so no result depends
// on how fast the machine runs. With no rounds at all nothing expires.
package gossip

import (
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// Links is the reachability oracle gossip traffic obeys — satisfied by
// *cluster.Cluster, so gossip messages respect the same network cuts
// the data plane does. Reachable must be an equivalence relation
// (reflexive, symmetric, transitive): a cut splits the membership into
// sides, and a round asks each node which side it is on, not each pair.
type Links interface {
	Reachable(a, b string) bool
}

// fullMesh is the Links used when none is provided (no partitions).
type fullMesh struct{}

func (fullMesh) Reachable(a, b string) bool { return true }

// Config parameterizes a Directory. The zero value gets sane defaults.
type Config struct {
	// Seed drives peer selection for the push/pull exchange; a soak
	// replays exactly from (Seed, event script).
	Seed int64
	// Fanout is how many peers each node exchanges views with per round
	// (default 2).
	Fanout int
	// TTL is how many rounds one advertisement refresh keeps a lease
	// valid (default 15: 30 s at squirreld's 2 s round interval). A
	// lease not refreshed for TTL rounds is never served.
	TTL int64
	// Owners is how many ring successors hold each object's
	// advertisement set (default 2): one crash never loses a set.
	Owners int
}

// vnodes is the virtual-node count per member on the consistent-hash
// ring.
const vnodes = 16

func (c Config) withDefaults() Config {
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if c.TTL <= 0 {
		c.TTL = 15
	}
	if c.Owners <= 0 {
		c.Owners = 2
	}
	return c
}

// lease is one (object, holder) advertisement as stored in a view.
//
// Lease state machine, in rounds (R is the directory's round count):
//
//	active    seq S, expires E > R: served by lookups
//	refreshed holder re-advertises: seq' > S, E' = R + TTL
//	retracted holder withdraws: tombstone (gone) with fresher seq wins
//	          over the active lease it retracts, then ages out like any
//	          other entry
//	expired   R ≥ E: invisible to lookups immediately, pruned by the
//	          round that reaches E
type lease struct {
	seq     uint64
	expires int64 // first round in which the lease is no longer valid
	gone    bool
}

// live reports whether l is an unexpired advertisement at round r.
func (l lease) live(r int64) bool { return !l.gone && r < l.expires }

// view is one node's local slice of the index: obj → holder → lease.
// Ring ownership decides which objects a view retains — entries for
// ranges the node no longer owns are dropped after rounds hand them
// off, so view size tracks (objects × owners / nodes), not the cluster.
type view struct {
	leases map[string]map[string]lease
}

func newView() *view { return &view{leases: make(map[string]map[string]lease)} }

func (v *view) set(obj, holder string, l lease) {
	hs := v.leases[obj]
	if hs == nil {
		hs = make(map[string]lease)
		v.leases[obj] = hs
	}
	if cur, ok := hs[holder]; ok && cur.seq >= l.seq {
		return // stale message; fresher lease already present
	}
	hs[holder] = l
}

// RoundReport accounts one gossip round.
type RoundReport struct {
	Round       int64 // round number just completed
	Adverts     int   // lease refreshes planted on owner views
	Exchanges   int   // push/pull peer exchanges performed
	Transferred int   // leases copied by anti-entropy reconciliation
	Pruned      int   // expired or disowned entries dropped
	Dropped     int   // gossip messages lost to the fault lane
}

// Directory is the decentralized index: the union of every node's view,
// advanced one seeded round at a time by Tick. All methods are safe for
// concurrent use; rounds serialize against lookups on one mutex.
type Directory struct {
	cfg   Config
	links Links

	mu      sync.Mutex
	members []string // all node IDs ever known, sorted
	alive   map[string]bool
	views   map[string]*view
	// holdings is each node's authoritative local truth — what its
	// replica physically holds and may serve — fed by the core announce
	// chokepoint and re-leased every round.
	holdings map[string]map[string]bool
	ring     *Ring
	seq      uint64
	round    int64
	inj      *fault.Injector
	counters *metrics.CounterSet
}

// New builds a directory over the given membership. All nodes start
// alive; links nil means no partitions.
func New(cfg Config, nodes []string, links Links) *Directory {
	cfg = cfg.withDefaults()
	if links == nil {
		links = fullMesh{}
	}
	d := &Directory{
		cfg:      cfg,
		links:    links,
		members:  append([]string(nil), nodes...),
		alive:    make(map[string]bool, len(nodes)),
		views:    make(map[string]*view, len(nodes)),
		holdings: make(map[string]map[string]bool, len(nodes)),
		ring:     NewRing(vnodes),
	}
	sort.Strings(d.members)
	for _, n := range d.members {
		d.alive[n] = true
		d.views[n] = newView()
	}
	// One sorted bulk join: a per-member Add would rebuild the ring
	// order n times and dominate construction at 10k nodes.
	d.ring.AddAll(d.members)
	return d
}

// SetInjector points the gossip plane at a fault injector; its
// GossipDrop lane then loses refresh and exchange messages
// deterministically. Nil restores a lossless plane.
func (d *Directory) SetInjector(in *fault.Injector) {
	d.mu.Lock()
	d.inj = in
	d.mu.Unlock()
}

// SetCounters routes gossip accounting into the telemetry counter set
// of a traced deployment; untraced, the set stays nil and drops it.
func (d *Directory) SetCounters(c *metrics.CounterSet) {
	d.mu.Lock()
	d.counters = c
	d.mu.Unlock()
}

// SetHoldings replaces node's advertised object set: new objects are
// leased to the current owners immediately (an announce is not gated on
// the next round), vanished objects are retracted with tombstones. The
// core announce chokepoint calls this on every register/sync/GC/restart
// reconciliation.
func (d *Directory) SetHoldings(node string, objs []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.views[node]; !ok {
		return
	}
	prev := d.holdings[node]
	next := make(map[string]bool, len(objs))
	for _, o := range objs {
		next[o] = true
	}
	d.holdings[node] = next
	if !d.alive[node] {
		return // recorded; advertised when the node comes back
	}
	for _, o := range sortedKeys(next) {
		d.advertiseLocked(node, o, false)
	}
	for _, o := range sortedKeys(prev) {
		if !next[o] {
			d.advertiseLocked(node, o, true)
		}
	}
}

// Withdraw retracts one (obj, node) advertisement (replica dropped).
func (d *Directory) Withdraw(obj, node string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if h := d.holdings[node]; h[obj] {
		delete(h, obj)
	}
	if d.alive[node] {
		d.advertiseLocked(node, obj, true)
	}
}

// WithdrawObject purges obj from every view and every holding set — a
// control-plane deregistration: the object is gone from the storage
// tier, so no lease for it is meaningful anywhere.
func (d *Directory) WithdrawObject(obj string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, h := range d.holdings {
		delete(h, obj)
	}
	for _, v := range d.views {
		delete(v.leases, obj)
	}
}

// Retract tombstones every advertisement node has made, as far as the
// network lets node reach (a node that detects its own damage retracts
// itself; a node behind a cut can only tell its own side). Holdings are
// kept — a later SetHoldings or round re-advertises whatever still
// applies.
func (d *Directory) Retract(node string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.alive[node] {
		return
	}
	for _, o := range sortedKeys(d.holdings[node]) {
		d.advertiseLocked(node, o, true)
	}
}

// MarkDown records a node crash or stop: it leaves the ring and the
// gossip exchange, and its view — process memory — is wiped. Nobody
// retracts its leases for it: they sit in the surviving owners' views
// until their TTL rounds run out, which is exactly the bounded
// staleness a decentralized index trades for having no single registry
// to crash.
func (d *Directory) MarkDown(node string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.alive[node] {
		return
	}
	d.alive[node] = false
	d.ring.Remove(node)
	d.views[node] = newView()
	d.counters.Add("gossip.member_down", 1)
}

// MarkUp rejoins a restarted node with an empty view; ring ownership
// shifts back and the following rounds (anti-entropy pull plus every
// holder's refresh) warm the ranges it now owns.
func (d *Directory) MarkUp(node string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.views[node]; !ok || d.alive[node] {
		return
	}
	d.alive[node] = true
	d.ring.Add(node)
	d.counters.Add("gossip.member_up", 1)
}

// advertiseLocked plants one lease (or tombstone) for (obj, node) on
// the views that should carry it: the advertiser's own view plus every
// reachable live owner. Each owner message rolls the GossipDrop lane
// independently.
func (d *Directory) advertiseLocked(node, obj string, gone bool) (planted, dropped int) {
	d.seq++
	l := lease{seq: d.seq, expires: d.round + d.cfg.TTL, gone: gone}
	d.views[node].set(obj, node, l)
	planted++
	for _, owner := range d.ring.Owners(obj, d.cfg.Owners) {
		if owner == node || !d.alive[owner] {
			continue
		}
		if !d.links.Reachable(node, owner) {
			continue
		}
		if d.inj.DropGossip("gossip:refresh", node, owner, d.round) {
			dropped++
			continue
		}
		d.views[owner].set(obj, node, l)
		planted++
	}
	return planted, dropped
}

// Tick runs one gossip round:
//
//  1. refresh — every live node re-leases its holdings to the current
//     owners (push; expiry pushed out to this round + TTL).
//  2. push/pull — every live node exchanges views with Fanout seeded
//     peers: each side sends a digest (per-(obj,holder) max seq over
//     the entries the receiver owns), the other replies with exactly
//     the fresher entries. Anti-entropy: divergent views converge
//     without re-sending whole tables.
//  3. prune — expired leases and entries for ranges a view's node no
//     longer owns are dropped.
//
// Rounds are the directory's clock: lease expiry, and the convergence
// bound the churn soak counts between "events stop" and "views
// converged", are both measured in Ticks.
func (d *Directory) Tick() RoundReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.round++
	rep := RoundReport{Round: d.round}

	live := d.aliveSortedLocked()

	// 1. Refresh leases at the owners.
	for _, n := range live {
		for _, o := range sortedKeys(d.holdings[n]) {
			p, dr := d.advertiseLocked(n, o, false)
			rep.Adverts += p
			rep.Dropped += dr
		}
	}

	// 2. Fanout-k push/pull with seeded peer choice.
	sides, of := d.sidesLocked(live)
	for i, n := range live {
		for _, p := range d.pickPeersLocked(n, sides[of[i]]) {
			if d.inj.DropGossip("gossip:xchg", n, p, d.round) {
				rep.Dropped++
				continue
			}
			rep.Exchanges++
			rep.Transferred += d.reconcileLocked(p, n) // push: n's entries p owns
			rep.Transferred += d.reconcileLocked(n, p) // pull: p's entries n owns
		}
	}

	// 3. Prune expiry and disowned ranges.
	for _, n := range live {
		rep.Pruned += d.pruneLocked(n)
	}

	d.counters.Add("gossip.rounds", 1)
	d.counters.Add("gossip.adverts", int64(rep.Adverts))
	d.counters.Add("gossip.exchanges", int64(rep.Exchanges))
	d.counters.Add("gossip.transferred", int64(rep.Transferred))
	d.counters.Add("gossip.pruned", int64(rep.Pruned))
	d.counters.Add("gossip.dropped", int64(rep.Dropped))
	return rep
}

// sidesLocked splits live into reachability sides, once per round: a
// node joins the first side whose first member it can reach, which is
// sound because Reachable is an equivalence relation. One side when
// nothing is cut, two under cluster.Partition — O(live × sides)
// Reachable calls where asking every pair would be O(live²). Sides keep
// live's order; of[i] is the side live[i] is on.
func (d *Directory) sidesLocked(live []string) (sides [][]string, of []int) {
	of = make([]int, len(live))
	for i, n := range live {
		s := 0
		for s < len(sides) && !d.links.Reachable(sides[s][0], n) {
			s++
		}
		if s == len(sides) {
			sides = append(sides, nil)
		}
		sides[s] = append(sides[s], n)
		of[i] = s
	}
	return sides, of
}

// pickPeersLocked draws up to Fanout distinct exchange partners for n
// from side — n's side of the live membership, sorted — by a pure hash
// of (seed, round, n, i), so a soak replays from its seed. The
// candidates are side minus n, in order, but the list is never built (a
// slice per caller makes a round quadratic in the membership, the
// dominant cost at the workload engine's 10k-node scale): each seeded
// index is mapped into it by adjusting for earlier draws and for the
// self slot.
func (d *Directory) pickPeersLocked(n string, side []string) []string {
	self := sort.SearchStrings(side, n)
	if self == len(side) || side[self] != n {
		self = -1 // n itself is down; its whole side is candidates
	}
	size := len(side)
	if self >= 0 {
		size--
	}
	k := d.cfg.Fanout
	if k > size {
		k = size
	}
	out := make([]string, 0, k)
	removed := make([]int, 0, k) // candidate indices already drawn, ascending
	for i := 0; i < k; i++ {
		h := splitmix(fnv1a(n) ^ splitmix(uint64(d.cfg.Seed)^uint64(d.round)*0x9e3779b97f4a7c15^uint64(i)<<32))
		j := int(h % uint64(size-i))
		// Map the draw from the shrunken list back to the original
		// candidate index: every earlier removal at or below the running
		// position shifts it up by one.
		for _, r := range removed {
			if j >= r {
				j++
			}
		}
		at := 0
		for at < len(removed) && removed[at] < j {
			at++
		}
		removed = append(removed, 0)
		copy(removed[at+1:], removed[at:])
		removed[at] = j
		// Candidate index → side index: candidates are side minus n.
		si := j
		if self >= 0 && j >= self {
			si++
		}
		out = append(out, side[si])
	}
	return out
}

// reconcileLocked is one direction of the anti-entropy exchange: copy
// from src's view into dst's view every lease for an object dst owns
// (or holds itself) whose seq is fresher than what dst has. This is the
// digest step collapsed in-process: the digest dst would send is its
// per-(obj,holder) max seq, and exactly the entries that beat it are
// transferred. Expired entries are never transferred.
func (d *Directory) reconcileLocked(dst, src string) int {
	sv, dv := d.views[src], d.views[dst]
	moved := 0
	for obj, hs := range sv.leases {
		if !d.ownsLocked(dst, obj) {
			continue
		}
		for holder, l := range hs {
			if l.expires <= d.round {
				continue
			}
			if cur, ok := dv.leases[obj][holder]; ok && cur.seq >= l.seq {
				continue
			}
			dv.set(obj, holder, l)
			moved++
		}
	}
	return moved
}

// pruneLocked drops expired leases and hands off disowned ranges from
// n's view. An entry is kept while its lease is live and either n owns
// the object or n is the holder (a node always remembers its own
// adverts).
func (d *Directory) pruneLocked(n string) int {
	v := d.views[n]
	pruned := 0
	for obj, hs := range v.leases {
		owns := d.ownsLocked(n, obj)
		for holder, l := range hs {
			if l.expires <= d.round || (!owns && holder != n) {
				delete(hs, holder)
				pruned++
			}
		}
		if len(hs) == 0 {
			delete(v.leases, obj)
		}
	}
	return pruned
}

// ownsLocked reports whether node is one of obj's ring owners.
func (d *Directory) ownsLocked(node, obj string) bool {
	for _, o := range d.ring.Owners(obj, d.cfg.Owners) {
		if o == node {
			return true
		}
	}
	return false
}

// Lookup resolves obj's holders as seen from node `from`: ask the ring
// owners in successor order — one hop — and return the first non-empty
// live holder set; owners that are down or across a cut are skipped.
// When no owner is reachable (every owner stranded on the far side of a
// cut), fall back to from's own view, which at least knows its own
// holdings. from == "" is the operator's omniscient view (stats,
// squirrelctl): it may ask any live owner.
//
// Expired leases are filtered here unconditionally — whatever a view
// still physically stores, an entry past its TTL is never served.
func (d *Directory) Lookup(from, obj string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.counters.Add("gossip.lookups", 1)
	for _, owner := range d.ring.Owners(obj, d.cfg.Owners) {
		if !d.alive[owner] {
			continue
		}
		if from != "" && owner != from && !d.links.Reachable(from, owner) {
			continue
		}
		if hs := d.liveHoldersLocked(d.views[owner], obj); len(hs) > 0 {
			if owner != from {
				d.counters.Add("gossip.lookup_hops", 1)
			}
			return hs
		}
	}
	if from != "" {
		d.counters.Add("gossip.lookup_fallback", 1)
		return d.liveHoldersLocked(d.views[from], obj)
	}
	return nil
}

// liveHoldersLocked lists the unexpired, unretracted holders for obj in
// v, sorted.
func (d *Directory) liveHoldersLocked(v *view, obj string) []string {
	if v == nil {
		return nil
	}
	var out []string
	for holder, l := range v.leases[obj] {
		if l.live(d.round) {
			out = append(out, holder)
		}
	}
	sort.Strings(out)
	return out
}

// Round returns the number of completed rounds.
func (d *Directory) Round() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.round
}

// Owners exposes obj's current ring owners (tests, docs).
func (d *Directory) Owners(obj string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ring.Owners(obj, d.cfg.Owners)
}

// Objects counts distinct objects with at least one live lease in some
// view.
func (d *Directory) Objects() int {
	objs, _ := d.unionLocked()
	return objs
}

// Entries counts distinct live (obj, holder) leases across all views —
// the decentralized analogue of the central index's announcement count.
func (d *Directory) Entries() int {
	_, entries := d.unionLocked()
	return entries
}

func (d *Directory) unionLocked() (objs, entries int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := make(map[string]map[string]bool)
	for _, v := range d.views {
		for obj, hs := range v.leases {
			for holder, l := range hs {
				if !l.live(d.round) {
					continue
				}
				if seen[obj] == nil {
					seen[obj] = make(map[string]bool)
				}
				seen[obj][holder] = true
			}
		}
	}
	for _, hs := range seen {
		entries += len(hs)
	}
	return len(seen), entries
}

// AnnouncedBy counts the distinct objects node has a live lease for in
// any view (the health dump's withdrawn column).
func (d *Directory) AnnouncedBy(node string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := make(map[string]bool)
	for _, v := range d.views {
		for obj, hs := range v.leases {
			if l, ok := hs[node]; ok && l.live(d.round) {
				seen[obj] = true
			}
		}
	}
	return len(seen)
}

// ViewStats sizes one node's local view: live leases it carries, and
// stale ones (expired but not yet pruned by a round) — the staleness
// column in squirrelctl.
func (d *Directory) ViewStats(node string) (leases, stale int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.views[node]
	if v == nil {
		return 0, 0
	}
	for _, hs := range v.leases {
		for _, l := range hs {
			if l.live(d.round) {
				leases++
			} else {
				stale++
			}
		}
	}
	return leases, stale
}

// StaleTotal sums ViewStats stale counts over live views.
func (d *Directory) StaleTotal() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	for n, v := range d.views {
		if !d.alive[n] {
			continue
		}
		for _, hs := range v.leases {
			for _, l := range hs {
				if !l.live(d.round) {
					total++
				}
			}
		}
	}
	return total
}

func (d *Directory) aliveSortedLocked() []string {
	out := make([]string, 0, len(d.members))
	for _, n := range d.members {
		if d.alive[n] {
			out = append(out, n)
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
