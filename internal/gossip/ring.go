package gossip

import (
	"sort"
)

// Ring is the consistent-hash ownership layer of the decentralized
// index: each cache object's advertisement set is owned by the
// Owners() successors of H(object) on the ring, so an advertiser knows
// exactly which views to refresh and a lookup knows exactly which views
// to ask — O(1) hops, no flooding. Virtual nodes smooth the ownership
// distribution; membership changes (crash, restart) move only the
// ranges adjacent to the changed node, and the next refresh round
// re-populates the new owners (automatic re-replication).
//
// The ring is not safe for concurrent use; the Directory serializes
// access under its own mutex.
type Ring struct {
	vnodes int
	nodes  map[string]bool
	// points is the sorted ring: vnode hash → owning node.
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds an empty ring with the given virtual-node count per
// member (minimum 1).
func NewRing(vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// Add joins a node to the ring (idempotent). The node's vnodes are
// sorted on their own and merged into the already-sorted ring, so a
// join costs O(ring) instead of a full re-sort; the resulting order is
// identical either way because pointLess is a total order independent
// of insertion sequence.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	fresh := make([]ringPoint, 0, r.vnodes)
	for i := 0; i < r.vnodes; i++ {
		fresh = append(fresh, ringPoint{hash: vnodeHash(node, i), node: node})
	}
	sort.Slice(fresh, func(i, j int) bool { return pointLess(fresh[i], fresh[j]) })
	r.points = mergePoints(r.points, fresh)
}

// AddAll joins many nodes at once: one sort over the union instead of a
// merge per member. Bulk construction of a 10k-node ring is what the
// workload engine's provisioning path hits, and a per-Add merge there
// would be quadratic in the membership.
func (r *Ring) AddAll(nodes []string) {
	added := false
	for _, node := range nodes {
		if r.nodes[node] {
			continue
		}
		r.nodes[node] = true
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(node, i), node: node})
		}
		added = true
	}
	if added {
		sort.Slice(r.points, func(i, j int) bool { return pointLess(r.points[i], r.points[j]) })
	}
}

// pointLess is the ring's total order: by hash, hash ties
// (astronomically rare) broken lexically so the walk order is
// deterministic regardless of insertion order.
func pointLess(a, b ringPoint) bool {
	if a.hash != b.hash {
		return a.hash < b.hash
	}
	return a.node < b.node
}

// mergePoints merges two pointLess-sorted lists.
func mergePoints(a, b []ringPoint) []ringPoint {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]ringPoint, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if pointLess(b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Remove drops a node from the ring (idempotent).
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.nodes) }

// Owners returns the n distinct members that own key: the successors of
// H(key) walking clockwise. Fewer than n members returns all of them,
// nearest first. The order is significant — lookups ask owners in this
// order, so the primary owner absorbs most lookup traffic for its keys.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, p.node)
	}
	return out
}

// vnodeHash positions one virtual node on the ring.
func vnodeHash(node string, replica int) uint64 {
	return splitmix(fnv1a(node) ^ uint64(replica)*0x9e3779b97f4a7c15)
}

// keyHash positions a cache object on the ring.
func keyHash(key string) uint64 { return splitmix(fnv1a(key)) }

// fnv1a folds a string into 64 bits.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// splitmix finalizes a hash with good avalanche (same finalizer the
// fault injector uses, so ring placement is stable and well mixed
// without pulling in a full RNG).
func splitmix(h uint64) uint64 {
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
