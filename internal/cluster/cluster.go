// Package cluster models the data-center substrate of the paper's
// evaluation: DAS-4/VU compute and storage nodes, NIC byte accounting,
// the two network fabrics (1 GbE and 32 Gb/s QDR InfiniBand), a
// gluster-like striped + replicated parallel file system on the storage
// nodes, and the one-to-many transfer schemes Squirrel can use to
// propagate snapshot diffs (IP multicast, unicast fan-out, and a
// LANTorrent-style pipeline).
//
// Fig 18 is pure byte accounting on compute-node NICs; the fabric
// bandwidths additionally give transfer durations for the propagation
// ablation.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrUnreachable marks a transfer whose endpoints sit on opposite sides
// of an open network partition. Operations that cross the cut wrap it,
// so callers branch with errors.Is and retry after the heal.
var ErrUnreachable = errors.New("cluster: unreachable across network partition")

// Fabric describes one interconnect.
type Fabric struct {
	Name string
	Bps  float64 // usable bytes/second per link
}

// The paper's two DAS-4 fabrics (theoretical peak for IB, wire rate for
// GbE, both derated to realistic goodput).
var (
	GigE = Fabric{Name: "1GbE", Bps: 110e6}
	QDR  = Fabric{Name: "32GbIB", Bps: 3.2e9}
)

// TransferSec is the time to move n bytes over the fabric.
func (f Fabric) TransferSec(n int64) float64 {
	if f.Bps <= 0 {
		return 0
	}
	return float64(n) / f.Bps
}

// Role of a node.
type Role int

// Node roles.
const (
	Compute Role = iota
	Storage
)

// Node is one machine with NIC counters. Counters are atomic so
// concurrent transfers (parallel propagation legs, peer fetches, PFS
// chunk reads) account bytes without serializing on a per-node mutex.
type Node struct {
	ID   string
	Role Role

	rx atomic.Int64
	tx atomic.Int64
}

// Recv accounts n received bytes.
func (n *Node) Recv(b int64) { n.rx.Add(b) }

// Send accounts n transmitted bytes.
func (n *Node) Send(b int64) { n.tx.Add(b) }

// RxBytes returns received bytes so far.
func (n *Node) RxBytes() int64 { return n.rx.Load() }

// TxBytes returns transmitted bytes so far.
func (n *Node) TxBytes() int64 { return n.tx.Load() }

// Cluster is a set of storage and compute nodes on one fabric.
type Cluster struct {
	Fabric  Fabric
	Storage []*Node
	Compute []*Node

	// netmu guards the partition state: the set of node IDs currently on
	// the minority side of an open cut. Nodes on the same side reach each
	// other; nothing crosses the cut. Storage nodes stay on the majority
	// side unless explicitly listed.
	netmu sync.Mutex
	cut   map[string]bool
}

// New builds a cluster with the given node counts, like the paper's 4
// storage + 64 compute DAS-4 slice.
func New(fabric Fabric, storage, compute int) (*Cluster, error) {
	if storage < 1 || compute < 1 {
		return nil, fmt.Errorf("cluster: need at least one node of each role")
	}
	c := &Cluster{Fabric: fabric}
	for i := 0; i < storage; i++ {
		c.Storage = append(c.Storage, &Node{ID: fmt.Sprintf("stor%02d", i), Role: Storage})
	}
	for i := 0; i < compute; i++ {
		c.Compute = append(c.Compute, &Node{ID: fmt.Sprintf("node%02d", i), Role: Compute})
	}
	return c, nil
}

// ComputeRxTotal sums received bytes over all compute nodes — Fig 18's
// "cumulative transfer size at compute nodes".
func (c *Cluster) ComputeRxTotal() int64 {
	var n int64
	for _, node := range c.Compute {
		n += node.RxBytes()
	}
	return n
}

// ResetCounters zeroes every NIC counter.
func (c *Cluster) ResetCounters() {
	for _, n := range append(append([]*Node{}, c.Storage...), c.Compute...) {
		n.rx.Store(0)
		n.tx.Store(0)
	}
}

// ---------------------------------------------------------------------------
// Network partitions.

// Partition opens a network cut isolating the given node IDs (the
// minority side) from every other node. Calling Partition again replaces
// the cut wholesale; an empty minority heals it.
func (c *Cluster) Partition(minority []string) {
	cut := make(map[string]bool, len(minority))
	for _, id := range minority {
		cut[id] = true
	}
	c.netmu.Lock()
	c.cut = cut
	c.netmu.Unlock()
}

// Heal closes the open cut, restoring full connectivity. Returns the
// node IDs that were stranded, sorted — the set index anti-entropy must
// reconcile.
func (c *Cluster) Heal() []string {
	c.netmu.Lock()
	ids := make([]string, 0, len(c.cut))
	for id := range c.cut {
		ids = append(ids, id)
	}
	c.cut = nil
	c.netmu.Unlock()
	sort.Strings(ids)
	return ids
}

// Reachable reports whether nodes a and b can currently exchange bytes:
// both on the same side of the cut (or no cut open).
func (c *Cluster) Reachable(a, b string) bool {
	if a == b {
		return true
	}
	c.netmu.Lock()
	defer c.netmu.Unlock()
	return c.cut[a] == c.cut[b]
}

// Unreachable reports whether id sits on the minority side of an open
// cut — stranded from the storage nodes and the rest of the cluster.
func (c *Cluster) Unreachable(id string) bool {
	c.netmu.Lock()
	defer c.netmu.Unlock()
	return c.cut[id]
}
