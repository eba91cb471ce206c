// Package peer implements the content index and source-selection policy
// behind Squirrel's peer block exchange: compute nodes collectively
// hoard VMI cache replicas (§3 of the paper), so a cold-boot miss can be
// served by a neighboring node instead of hammering the parallel file
// system. The design follows Shoal-style publish/lookup indexing: nodes
// announce the cache objects they hold, withdraw them when replicas are
// dropped or nodes go away, and a booting node looks up holders and
// picks a source with a load-aware policy.
//
// The package is deliberately mechanism-only: it tracks who holds what
// and how loaded each holder is. Eligibility policy that depends on
// deployment state (the booting node itself, offline nodes, lagging
// nodes) is passed in by the caller as an exclusion predicate, which
// keeps the index free of core's locking.
//
// All methods are safe for concurrent use.
package peer

import (
	"sort"
	"sync"

	"repro/internal/metrics"
)

// Policy parameterizes the peer exchange on a deployment.
type Policy struct {
	// Enabled gates the boot-time peer-fetch path. The index itself is
	// always maintained (it is cheap, and stats/experiments read it).
	Enabled bool
	// MaxServeSlots bounds concurrent serves per node so one hot replica
	// cannot melt a single peer; a node at capacity is skipped by
	// selection. Zero or negative means DefaultMaxServeSlots.
	MaxServeSlots int
	// Hedge enables hedged cold-miss fetches on the boot path: when the
	// primary source draws a slow serve, the fetch is cloned to the
	// next-best holder and the first byte wins. Off by default — the
	// un-hedged ladder is the baseline the hedging bench compares against.
	Hedge bool
	// Breaker configures per-peer circuit breakers. The zero value
	// disables them; DefaultBreakerPolicy() enables the standard circuit.
	Breaker BreakerPolicy
}

// DefaultMaxServeSlots is MaxServeSlots when unset; DefaultMaxAttempts
// is how many candidate peers one miss tries before falling back to the
// PFS.
const (
	DefaultMaxServeSlots = 4
	DefaultMaxAttempts   = 3
)

// DefaultPolicy returns the enabled peer exchange with default bounds.
func DefaultPolicy() Policy {
	return Policy{Enabled: true, MaxServeSlots: DefaultMaxServeSlots}
}

// Normalize fills unset bounds with defaults.
func (p Policy) Normalize() Policy {
	if p.MaxServeSlots <= 0 {
		p.MaxServeSlots = DefaultMaxServeSlots
	}
	return p
}

// load is the per-node serve-side state.
type load struct {
	active int   // serves in flight (bounded by Policy.MaxServeSlots)
	reads  int64 // completed serves
	bytes  int64 // bytes served
}

// NodeLoad is a snapshot of one node's serve load.
type NodeLoad struct {
	NodeID      string
	Active      int   // serves in flight at snapshot time
	ServedReads int64 // completed serves
	ServedBytes int64 // bytes served over the peer exchange
}

// Index is the cluster-wide content index: cache-object ID → the set of
// compute nodes currently announcing a replica, plus per-node serve
// load. One Index belongs to one deployment.
type Index struct {
	mu      sync.Mutex
	holders map[string]map[string]struct{} // objID → nodeID set
	// held is the inverse of holders, nodeID → objID set, kept in step
	// with it so the per-node operations (SetHoldings, WithdrawNode,
	// AnnouncedBy) cost what that node announces, not the whole index.
	held  map[string]map[string]struct{}
	loads map[string]*load // nodeID → serve load

	// Circuit-breaker state, under its own mutex so the selection path
	// can consult it while holding mu (one-way order: mu → bmu).
	bmu      sync.Mutex
	bpol     BreakerPolicy
	breakers map[string]*breaker // nodeID → circuit state

	counters *metrics.CounterSet
	sizes    *metrics.Histogram // successful peer-transfer sizes
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		holders:  make(map[string]map[string]struct{}),
		held:     make(map[string]map[string]struct{}),
		loads:    make(map[string]*load),
		breakers: make(map[string]*breaker),
		counters: metrics.NewCounterSet(),
		sizes:    metrics.MustHistogram(metrics.ByteBuckets()...),
	}
}

// Counters exposes the exchange accounting: peer.hit, peer.miss,
// peer.fallback, peer.busy, peer.fault, peer.bytes, peer.wasted_bytes,
// peer.crash — what an operator dashboard would scrape.
func (ix *Index) Counters() *metrics.CounterSet {
	if ix == nil {
		return nil
	}
	return ix.counters
}

// SetCounters points the exchange's accounting at a shared counter
// registry (the telemetry layer's "one registry"). Nil-safe: a nil index
// ignores the call; a nil set restores the index's private accounting.
func (ix *Index) SetCounters(c *metrics.CounterSet) {
	if ix == nil {
		return
	}
	ix.mu.Lock()
	ix.bmu.Lock() // breaker paths read counters under bmu alone
	if c == nil {
		c = metrics.NewCounterSet()
	}
	ix.counters = c
	ix.bmu.Unlock()
	ix.mu.Unlock()
}

// TransferSizes is the histogram of successful peer-transfer sizes.
func (ix *Index) TransferSizes() *metrics.Histogram {
	if ix == nil {
		return nil
	}
	return ix.sizes
}

// Announce publishes that node holds a replica of obj.
func (ix *Index) Announce(obj, node string) {
	ix.mu.Lock()
	ix.announceLocked(obj, node)
	ix.mu.Unlock()
}

func (ix *Index) announceLocked(obj, node string) {
	link(ix.holders, obj, node)
	link(ix.held, node, obj)
}

// Withdraw removes node's announcement for obj (replica dropped).
func (ix *Index) Withdraw(obj, node string) {
	ix.mu.Lock()
	ix.withdrawLocked(obj, node)
	ix.mu.Unlock()
}

func (ix *Index) withdrawLocked(obj, node string) {
	unlink(ix.holders, obj, node)
	unlink(ix.held, node, obj)
}

// link adds b to a's set in m; unlink removes it, dropping a set that
// empties.
func link(m map[string]map[string]struct{}, a, b string) {
	set, ok := m[a]
	if !ok {
		set = make(map[string]struct{})
		m[a] = set
	}
	set[b] = struct{}{}
}

func unlink(m map[string]map[string]struct{}, a, b string) {
	if set, ok := m[a]; ok {
		delete(set, b)
		if len(set) == 0 {
			delete(m, a)
		}
	}
}

// WithdrawNode removes every announcement by node (crash, offline).
// Serve-load history is kept: a node that comes back re-announces its
// holdings but does not forget what it already served.
func (ix *Index) WithdrawNode(node string) {
	ix.mu.Lock()
	for obj := range ix.held[node] {
		unlink(ix.holders, obj, node)
	}
	delete(ix.held, node)
	ix.mu.Unlock()
}

// WithdrawObject removes obj from the index entirely (deregistration).
func (ix *Index) WithdrawObject(obj string) {
	ix.mu.Lock()
	for node := range ix.holders[obj] {
		unlink(ix.held, node, obj)
	}
	delete(ix.holders, obj)
	ix.mu.Unlock()
}

// SetHoldings reconciles node's announcements to exactly objs: new
// objects are announced, missing ones withdrawn. This is the
// announcement form used after healing, restart and garbage collection,
// where the replica's object set is authoritative.
func (ix *Index) SetHoldings(node string, objs []string) {
	want := make(map[string]struct{}, len(objs))
	for _, o := range objs {
		want[o] = struct{}{}
	}
	ix.mu.Lock()
	for obj := range ix.held[node] {
		if _, keep := want[obj]; !keep {
			ix.withdrawLocked(obj, node) // deleting during range is safe
		}
	}
	for obj := range want {
		ix.announceLocked(obj, node)
	}
	ix.mu.Unlock()
}

// Holders returns the nodes currently announcing obj, sorted.
func (ix *Index) Holders(obj string) []string {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	set := ix.holders[obj]
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Holds reports whether node currently announces obj.
func (ix *Index) Holds(obj, node string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	set, ok := ix.holders[obj]
	if !ok {
		return false
	}
	_, held := set[node]
	return held
}

// AnnouncedBy returns how many objects node currently announces. Zero
// means the node is fully withdrawn from the exchange (down, damaged,
// or simply holding nothing) — the health dump surfaces this.
func (ix *Index) AnnouncedBy(node string) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.held[node])
}

// Objects returns the number of distinct objects indexed.
func (ix *Index) Objects() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.holders)
}

// Entries returns the total number of (object, node) announcements,
// summed over the per-node inverse: O(nodes), not O(objects).
func (ix *Index) Entries() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := 0
	for _, set := range ix.held {
		n += len(set)
	}
	return n
}

// Loads snapshots per-node serve load for every node that has ever
// served (or is serving), sorted by node ID.
func (ix *Index) Loads() []NodeLoad {
	ix.mu.Lock()
	out := make([]NodeLoad, 0, len(ix.loads))
	for id, l := range ix.loads {
		out = append(out, NodeLoad{NodeID: id, Active: l.active, ServedReads: l.reads, ServedBytes: l.bytes})
	}
	ix.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	return out
}

// Acquire picks the best source for obj and reserves one serve slot on
// it. Candidates are the current holders minus those the caller
// excludes (the booting node, offline/lagging nodes, already-tried
// sources), minus holders whose circuit breaker is open — the breaker
// check composes onto the caller's exclusion predicate — minus nodes at
// maxSlots in-flight serves. "Best" is least-loaded: fewest active
// serves, then fewest served bytes, then lexical node ID — deterministic
// for identical load states.
//
// The returned release function MUST be called exactly once: with the
// bytes actually served on success, or 0 on a failed transfer. ok is
// false when no candidate exists; busy additionally distinguishes
// "holders exist but all are at capacity" from "no eligible holder" —
// excluded and breaker-open holders never count as busy.
func (ix *Index) Acquire(obj string, maxSlots int, exclude func(node string) bool) (src string, release func(served int64), ok, busy bool) {
	skip := ix.composeSkip(exclude)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cands := make([]string, 0, len(ix.holders[obj]))
	for node := range ix.holders[obj] {
		cands = append(cands, node)
	}
	return ix.acquireLocked(cands, maxSlots, skip)
}

// AcquireFrom is Acquire over an externally supplied candidate set
// instead of the central holder map: the decentralized (gossip) index
// resolves holders through its own bounded-staleness views and hands
// them here, so slot accounting, least-loaded selection, and the
// circuit breakers compose identically whichever index produced the
// candidates. The release contract and the ok/busy semantics match
// Acquire exactly.
func (ix *Index) AcquireFrom(holders []string, maxSlots int, exclude func(node string) bool) (src string, release func(served int64), ok, busy bool) {
	skip := ix.composeSkip(exclude)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.acquireLocked(holders, maxSlots, skip)
}

// composeSkip stacks the breaker check onto the caller's exclusion
// predicate: a caller-excluded holder is skipped before its breaker is
// consulted, so ineligible nodes (offline, already tried) never tick an
// open breaker's cooldown.
func (ix *Index) composeSkip(exclude func(node string) bool) func(node string) bool {
	if !ix.bpolEnabled() {
		return exclude
	}
	return func(node string) bool {
		return (exclude != nil && exclude(node)) || ix.breakerSkip(node)
	}
}

func (ix *Index) acquireLocked(cands []string, maxSlots int, skip func(node string) bool) (src string, release func(served int64), ok, busy bool) {
	if maxSlots <= 0 {
		maxSlots = DefaultMaxServeSlots
	}
	var best *load
	for _, node := range cands {
		if skip != nil && skip(node) {
			continue
		}
		l := ix.loads[node]
		if l == nil {
			l = &load{}
			ix.loads[node] = l
		}
		if l.active >= maxSlots {
			busy = true
			continue
		}
		if best == nil || less(node, l, src, best) {
			src, best = node, l
		}
	}
	if best == nil {
		return "", nil, false, busy
	}
	best.active++
	var once sync.Once
	release = func(served int64) {
		once.Do(func() {
			ix.mu.Lock()
			best.active--
			if served > 0 {
				best.reads++
				best.bytes += served
			}
			ix.mu.Unlock()
			if served > 0 {
				ix.sizes.Observe(served)
			}
		})
	}
	return src, release, true, false
}

// less orders candidate (an, al) before the current best (bn, bl).
func less(an string, al *load, bn string, bl *load) bool {
	if al.active != bl.active {
		return al.active < bl.active
	}
	if al.bytes != bl.bytes {
		return al.bytes < bl.bytes
	}
	return an < bn
}
