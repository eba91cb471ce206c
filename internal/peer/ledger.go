package peer

import (
	"sort"
	"sync"

	"repro/internal/metrics"
)

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

// Ledger is the serve side of the exchange: per-node serve slots and
// load, and the per-peer circuit breakers, under one mutex. It knows
// nothing of who holds what — Acquire takes its candidates from
// whichever directory the deployment runs. One Ledger belongs to one
// deployment.
type Ledger struct {
	mu       sync.Mutex
	loads    map[string]*load    // nodeID → serve load
	bpol     BreakerPolicy       // fixed at construction
	breakers map[string]*breaker // nodeID → circuit state
	counters *metrics.CounterSet
}

// NewLedger returns an empty ledger whose breakers follow p (the zero
// policy disables them) and whose accounting lands in c, which must not
// be nil.
func NewLedger(p BreakerPolicy, c *metrics.CounterSet) *Ledger {
	return &Ledger{
		loads:    make(map[string]*load),
		bpol:     p,
		breakers: make(map[string]*breaker),
		counters: c,
	}
}

// Counters exposes the exchange accounting: peer.hit, peer.miss,
// peer.fallback, peer.busy, peer.fault, peer.bytes, peer.wasted_bytes,
// peer.crash, breaker.* — what an operator dashboard would scrape.
func (l *Ledger) Counters() *metrics.CounterSet { return l.counters }

// Loads snapshots per-node serve load for every node that has ever
// served (or is serving), sorted by node ID.
func (l *Ledger) Loads() []NodeLoad {
	l.mu.Lock()
	out := make([]NodeLoad, 0, len(l.loads))
	for id, ld := range l.loads {
		out = append(out, NodeLoad{NodeID: id, Active: ld.active, ServedReads: ld.reads, ServedBytes: ld.bytes})
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	return out
}

// Acquire picks the best source among holders and reserves one serve
// slot on it. Candidates are the holders minus those the caller excludes
// (the booting node, offline/lagging nodes, already-tried sources),
// minus holders whose circuit breaker is open, minus nodes at maxSlots
// in-flight serves. A caller-excluded holder is skipped before its
// breaker is consulted, so ineligible nodes never tick an open
// breaker's cooldown. "Best" is least-loaded: fewest active serves, then
// fewest served bytes, then lexical node ID — deterministic for
// identical load states.
//
// The returned release function MUST be called exactly once: with the
// bytes actually served on success, or 0 on a failed transfer. ok is
// false when no candidate exists; busy additionally distinguishes
// "holders exist but all are at capacity" from "no eligible holder" —
// excluded and breaker-open holders never count as busy.
func (l *Ledger) Acquire(holders []string, maxSlots int, exclude func(node string) bool) (src string, release func(served int64), ok, busy bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var best *load
	for _, node := range holders {
		if exclude != nil && exclude(node) {
			continue
		}
		// An open breaker skips its node; each skip counts against the
		// cooldown, and the selection that exhausts it becomes the
		// half-open probe and is let through. Breakers exist only while
		// the policy is enabled (RecordServe creates them).
		if b := l.breakers[node]; b != nil && b.state == breakerOpen {
			if b.cool--; b.cool > 0 {
				l.counters.Add("breaker.skip", 1)
				continue
			}
			b.state = breakerHalfOpen
			l.counters.Add("breaker.probe", 1)
		}
		ld := l.loads[node]
		if ld == nil {
			ld = &load{}
			l.loads[node] = ld
		}
		if ld.active >= maxSlots {
			busy = true
			continue
		}
		if best == nil || less(node, ld, src, best) {
			src, best = node, ld
		}
	}
	if best == nil {
		return "", nil, false, busy
	}
	best.active++
	var once sync.Once
	release = func(served int64) {
		once.Do(func() {
			l.mu.Lock()
			best.active--
			if served > 0 {
				best.reads++
				best.bytes += served
			}
			l.mu.Unlock()
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
