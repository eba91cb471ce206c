package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/zvol"
)

// replica is one compute node as Squirrel knows it (§3: one ccVolume per
// compute node). New builds one per node and none is ever added or
// removed, so a *replica is resolved without a lock and never goes stale.
//
// Lock order, deployment-wide, outermost first — any prefix may be
// skipped, none is taken against it:
//
//	image lock → commitMu → node lock (mu) → state → leaf locks
//
// Leaves are the internally locked subsystems that never call back into
// core (zvol.Volume, peer.Index, the gossip directory, bootGate, metrics,
// NIC atomics). An operation holds at most one image lock and one node
// lock; passes over many nodes (ScrubAll, GC, ResilverAll) take node
// locks one after another, never nested.
type replica struct {
	node *cluster.Node // immutable

	// mu is the node lock: compound operations on this node's replica
	// (receive, sync, scrub, resilver, restart, GC) exclude each other
	// through it. It does not guard the fields below; state does.
	mu   sync.Mutex
	gate bootGate // boot admission; internally locked
	// applyTail is the node's FIFO ticket, guarded by commitMu: each
	// registration, in commit order, queues behind its predecessor's
	// ticket here, so a replica receives incremental snapshots in
	// snapshot order.
	applyTail chan struct{}

	// Guarded by Squirrel.state.
	ccv       *zvol.Volume // the ccVolume; a full sync swaps it
	online    bool
	lagging   bool            // missed a registration; SyncNode heals
	downSince time.Time       // when it went down, if offline and known
	lastScrub time.Time       // zero if never scrubbed
	damaged   []zvol.BlockRef // quarantined by the last scrub; nil when clean
}

// replica resolves a compute node ID. It is the one place an unknown
// node is turned away.
func (s *Squirrel) replica(nodeID string) (*replica, error) {
	if r, ok := s.replicas[nodeID]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownNode, nodeID)
}

// CCVolume returns a compute node's cVolume.
func (s *Squirrel) CCVolume(nodeID string) (*zvol.Volume, error) {
	r, err := s.replica(nodeID)
	if err != nil {
		return nil, err
	}
	return s.ccVolume(r), nil
}

// ccVolume reads r's current ccVolume.
func (s *Squirrel) ccVolume(r *replica) *zvol.Volume {
	s.state.RLock()
	v := r.ccv
	s.state.RUnlock()
	return v
}

// isOnline reads one node's online flag.
func (s *Squirrel) isOnline(r *replica) bool {
	s.state.RLock()
	up := r.online
	s.state.RUnlock()
	return up
}

// markLagging flags one node for offline propagation.
func (s *Squirrel) markLagging(r *replica) {
	s.state.Lock()
	r.lagging = true
	s.state.Unlock()
}

// SetOnline marks a compute node up or down. Offline nodes miss
// registration diffs and must SyncNode on their next boot (§3.5).
// Bringing a crashed node back up does not clear its lagging mark; the
// first boot (or an explicit SyncNode) heals it.
func (s *Squirrel) SetOnline(nodeID string, up bool) error {
	r, err := s.replica(nodeID)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.state.Lock()
	defer s.state.Unlock()
	r.online = up
	// Offline nodes cannot serve peer fetches, so their announcements are
	// withdrawn; on the way back up the node re-announces what it still
	// physically holds (possibly a stale-but-valid subset).
	if up {
		// A torn apply must be rolled back before the replica serves
		// anything: with the journal open, the object table shows the
		// half-applied state. Rolling back means the node missed that
		// registration, so it comes up lagging.
		if r.ccv.NeedsRecovery() {
			r.ccv.Recover()
			r.lagging = true
			s.injector().Counters().Add("recover.rollback", 1)
		}
		r.downSince = time.Time{}
		s.idx.NodeUp(nodeID)
		s.announceHoldingsLocked(r)
	} else {
		s.idx.NodeDown(nodeID)
	}
	return nil
}

// nodeDown is the one "node goes down" transition every crash path
// shares — a whole-node CrashNode, a replica dying mid-transfer or
// mid-apply during Register, a source dying mid-serve on the peer
// ladder: the node drops offline and its index announcements are
// withdrawn. lagging marks it for SyncNode as well (it died holding a
// transfer it never finished); at, when known, stamps the downtime the
// restart audit reports.
func (s *Squirrel) nodeDown(r *replica, at time.Time, lagging bool) {
	s.state.Lock()
	r.online = false
	if lagging {
		r.lagging = true
	}
	if !at.IsZero() {
		r.downSince = at
	}
	s.state.Unlock()
	s.idx.NodeDown(r.node.ID)
}

// announceHoldingsLocked reconciles the peer index with what r's
// ccVolume actually holds, restricted to registered images (a replica
// may still physically hold a deregistered object until the next
// snapshot removes it, but such objects are no longer servable), and
// reports whether r may advertise at all. Every (re)announcement goes
// through the one guard below, so GC, sync, a partition heal and a
// registration's merge cannot resurrect a node that must stay
// withdrawn. Callers hold s.state (read or write).
func (s *Squirrel) announceHoldingsLocked(r *replica) bool {
	ccv := s.announcerLocked(r)
	if ccv != nil {
		s.idx.SetHoldings(r.node.ID, s.heldLocked(ccv))
	}
	return ccv != nil
}

// announceImageLocked publishes the one thing a registration changed on
// a synced replica — r now holds imageID — through the same guard as a
// full reconciliation. Everything else the node holds it announced when
// it got it, and whatever withdrew it since (deregistration, a dropped
// replica, damage, a cut, a crash) either removed the object or
// re-announces in full when it heals, so the one pair leaves the index
// where SetHoldings would. Callers hold s.state.
func (s *Squirrel) announceImageLocked(r *replica, imageID string) {
	if ccv := s.announcerLocked(r); ccv != nil && ccv.HasObject(imageID) {
		s.idx.Announce(imageID, r.node.ID, func() []string { return s.heldLocked(ccv) })
	}
}

// announcerLocked is the announce guard — the whole rule for "may this
// node be advertised": r's ccVolume if it may, nil if not. Callers hold
// s.state.
//
// Not while offline: going down withdrew it and coming back up
// re-announces it, so a replica that crashed after its registration leg
// applied is not put back by the merge.
//
// Not with known-damaged blocks: what it holds may be rotten, so it stays
// withdrawn until a resilver (or full re-replication) proves it clean —
// the index half of "never serve a corrupt byte"; the read-time checksum
// on every block is the other.
//
// Not behind an open cut: holders nobody can reach are withdrawn for the
// partition's duration (Shoal-style dynamic publishing) and the heal
// re-announces them from their authoritative object sets.
//
// Damage and a cut retract what the node had advertised; an offline
// node's entries are already where going down left them.
func (s *Squirrel) announcerLocked(r *replica) *zvol.Volume {
	if !r.online {
		return nil
	}
	if len(r.damaged) > 0 || s.cl.Unreachable(r.node.ID) {
		s.idx.Retract(r.node.ID)
		return nil
	}
	return r.ccv
}

// heldLocked lists the registered images ccv holds, in no particular
// order (both indexes take it as a set). Callers hold s.state.
func (s *Squirrel) heldLocked(ccv *zvol.Volume) []string {
	var held []string
	for id := range s.images {
		if ccv.HasObject(id) {
			held = append(held, id)
		}
	}
	return held
}
