// Package peer implements the content index and source-selection policy
// behind Squirrel's peer block exchange: compute nodes collectively
// hoard VMI cache replicas (§3 of the paper), so a cold-boot miss can be
// served by a neighboring node instead of hammering the parallel file
// system. The design follows Shoal-style publish/lookup indexing: nodes
// announce the cache objects they hold, withdraw them when replicas are
// dropped or nodes go away, and a booting node looks up holders and
// picks a source with a load-aware policy.
//
// The exchange asks two questions, and each has its own type:
//
//   - Directory answers "who holds obj": the central registry of
//     announcements (the gossip directory answers it too, in its own
//     package, and keeps no Directory).
//   - Ledger answers "which of these holders may serve now": per-node
//     serve slots and load, and the per-peer circuit breakers. It takes
//     candidates from whichever directory produced them.
//
// The package is deliberately mechanism-only. Eligibility policy that
// depends on deployment state (the booting node itself, offline nodes,
// lagging nodes) is passed in by the caller as an exclusion predicate,
// which keeps both types free of core's locking.
//
// All methods are safe for concurrent use; each type holds one mutex
// and takes no other.
package peer

import (
	"sort"
	"sync"
)

// Policy parameterizes the peer exchange on a deployment.
type Policy struct {
	// Enabled gates the boot-time peer-fetch path. The content index is
	// always maintained (it is cheap, and stats/experiments read it).
	Enabled bool
	// MaxServeSlots bounds concurrent serves per node so one hot replica
	// cannot melt a single peer; a node at capacity is skipped by
	// selection. Normalize turns zero or negative into
	// DefaultMaxServeSlots; the Ledger takes the bound as given.
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

// Directory is the central content index: cache-object ID → the set of
// compute nodes currently announcing a replica. It answers "who holds
// obj" for a deployment running the central index; which of those
// holders may serve is the Ledger's question. One Directory belongs to
// one deployment.
type Directory struct {
	mu      sync.Mutex
	holders map[string]map[string]struct{} // objID → nodeID set
	// held is the inverse of holders, nodeID → objID set, kept in step
	// with it so the per-node operations (SetHoldings, WithdrawNode,
	// AnnouncedBy) cost what that node announces, not the whole index.
	held map[string]map[string]struct{}
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		holders: make(map[string]map[string]struct{}),
		held:    make(map[string]map[string]struct{}),
	}
}

// Announce publishes that node holds a replica of obj.
func (d *Directory) Announce(obj, node string) {
	d.mu.Lock()
	d.announceLocked(obj, node)
	d.mu.Unlock()
}

func (d *Directory) announceLocked(obj, node string) {
	link(d.holders, obj, node)
	link(d.held, node, obj)
}

// Withdraw removes node's announcement for obj (replica dropped).
func (d *Directory) Withdraw(obj, node string) {
	d.mu.Lock()
	d.withdrawLocked(obj, node)
	d.mu.Unlock()
}

func (d *Directory) withdrawLocked(obj, node string) {
	unlink(d.holders, obj, node)
	unlink(d.held, node, obj)
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
func (d *Directory) WithdrawNode(node string) {
	d.mu.Lock()
	for obj := range d.held[node] {
		unlink(d.holders, obj, node)
	}
	delete(d.held, node)
	d.mu.Unlock()
}

// WithdrawObject removes obj from the index entirely (deregistration).
func (d *Directory) WithdrawObject(obj string) {
	d.mu.Lock()
	for node := range d.holders[obj] {
		unlink(d.held, node, obj)
	}
	delete(d.holders, obj)
	d.mu.Unlock()
}

// SetHoldings reconciles node's announcements to exactly objs: new
// objects are announced, missing ones withdrawn. This is the
// announcement form used after healing, restart and garbage collection,
// where the replica's object set is authoritative.
func (d *Directory) SetHoldings(node string, objs []string) {
	want := make(map[string]struct{}, len(objs))
	for _, o := range objs {
		want[o] = struct{}{}
	}
	d.mu.Lock()
	for obj := range d.held[node] {
		if _, keep := want[obj]; !keep {
			d.withdrawLocked(obj, node) // deleting during range is safe
		}
	}
	for obj := range want {
		d.announceLocked(obj, node)
	}
	d.mu.Unlock()
}

// Holders returns the nodes currently announcing obj, sorted.
func (d *Directory) Holders(obj string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	set := d.holders[obj]
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AnnouncedBy returns how many objects node currently announces. Zero
// means the node is fully withdrawn from the exchange (down, damaged,
// or simply holding nothing) — the health dump surfaces this.
func (d *Directory) AnnouncedBy(node string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.held[node])
}

// Objects returns the number of distinct objects indexed.
func (d *Directory) Objects() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.holders)
}

// Entries returns the total number of (object, node) announcements,
// summed over the per-node inverse: O(nodes), not O(objects).
func (d *Directory) Entries() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, set := range d.held {
		n += len(set)
	}
	return n
}
