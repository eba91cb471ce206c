package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/zvol"
)

// SyncMode says how a lagging node was brought back in sync.
type SyncMode int

// Sync modes (§3.5's two scenarios).
const (
	SyncNone        SyncMode = iota // already up to date
	SyncIncremental                 // diff since the node's latest snapshot
	SyncFull                        // full scVolume re-replication
)

// String renders the mode for reports.
func (m SyncMode) String() string {
	switch m {
	case SyncIncremental:
		return "incremental"
	case SyncFull:
		return "full"
	default:
		return "none"
	}
}

// SyncReport describes one offline-propagation catch-up.
type SyncReport struct {
	NodeID   string
	Mode     SyncMode
	Bytes    int64   // stream size transferred
	XferSec  float64 // unicast transfer duration
	Snapshot string  // snapshot the node ended at
	Healed   bool    // the node was lagging and this sync cleared it
}

// SyncNode implements offline propagation (§3.5): upon boot, a compute
// node asks for the diff between its latest local snapshot and the
// scVolume's latest. If the node's snapshot is still retained on the
// storage side the incremental stream succeeds; if the node has been
// offline for longer than the retention window (or is brand new), the
// incremental send fails and the whole scVolume is re-replicated. A
// successful sync clears the node's lagging mark: this is the healing
// path for replicas that exhausted their registration repair budget.
//
// The sync serializes only against other operations on the same node;
// syncs of different nodes run concurrently. A context cancelled before
// the transfer begins aborts with the node unchanged.
func (s *Squirrel) SyncNode(ctx context.Context, nodeID string) (SyncReport, error) {
	if err := ctx.Err(); err != nil {
		return SyncReport{}, fmt.Errorf("core: sync %s: %w", nodeID, err)
	}
	r, err := s.replica(nodeID)
	if err != nil {
		return SyncReport{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return s.syncNodeGuarded(obs.SpanFromContext(ctx), r)
}

// syncNodeGuarded wraps the sync body in a span: a root "sync" operation
// when called directly, a child of the boot that triggered the heal
// otherwise. Caller holds the node lock.
func (s *Squirrel) syncNodeGuarded(parent *obs.Span, r *replica) (SyncReport, error) {
	sp := s.tr.Op(parent, obs.OpSync, r.node.ID, "")
	rep, err := s.syncGuarded(r)
	sp.AddBytes(rep.Bytes)
	sp.AddSim(rep.XferSec)
	sp.Annotate("mode."+rep.Mode.String(), 1)
	if rep.Healed {
		sp.Annotate("healed", 1)
	}
	sp.Fail(err)
	sp.Finish()
	return rep, err
}

func (s *Squirrel) syncGuarded(r *replica) (SyncReport, error) {
	inj, nodeID := s.injector(), r.node.ID
	s.state.RLock()
	ccv, wasLagging := r.ccv, r.lagging
	s.state.RUnlock()
	// A torn apply is rolled back before anything else: sync cannot stack
	// a new receive on an open journal, and the rolled-back replica simply
	// looks like it missed the registration this sync now delivers.
	if ccv.NeedsRecovery() {
		ccv.Recover()
		inj.Counters().Add("recover.rollback", 1)
	}
	heal := func(rep SyncReport) SyncReport {
		s.state.Lock()
		defer s.state.Unlock()
		if wasLagging {
			r.lagging = false
			rep.Healed = true
			inj.Counters().Add("repair.healed", 1)
		}
		// A synced node's holdings are authoritative again: (re)announce
		// them so the peer exchange can route misses here. (If the node
		// still has damaged blocks, announceHoldingsLocked keeps it
		// withdrawn — sync fixes staleness, resilver fixes rot.)
		s.announceHoldingsLocked(r)
		return rep
	}
	latest := s.sc.LatestSnapshot()
	if latest == nil {
		return heal(SyncReport{NodeID: nodeID, Mode: SyncNone}), nil
	}
	local := ""
	if snap := ccv.LatestSnapshot(); snap != nil {
		local = snap.Name
		if local == latest.Name {
			return heal(SyncReport{NodeID: nodeID, Mode: SyncNone, Snapshot: local}), nil
		}
	}
	// The catch-up stream comes from the storage side; a node across an
	// open cut cannot receive it. Fail fast — the post-heal anti-entropy
	// pass retries the sync once the fabric is whole again.
	if !s.cl.Reachable(s.cl.Storage[0].ID, nodeID) {
		inj.Counters().Add("sync.partitioned", 1)
		return SyncReport{}, fmt.Errorf("core: sync %s: %w", nodeID, cluster.ErrUnreachable)
	}
	// The diff since the node's latest snapshot, applied to its replica
	// — or, when the scVolume no longer retains that snapshot (or
	// the node never had one), the whole scVolume, applied to a fresh
	// replica. Either way the stream is prepared by the scVolume and
	// handed over as a registration's is: nothing the scVolume stores is
	// compressed again, and the replica aliases the stored payloads.
	rep := SyncReport{NodeID: nodeID, Snapshot: latest.Name, Mode: SyncIncremental}
	target := ccv
	stream, err := s.sc.Send(local, latest.Name)
	if errors.Is(err, zvol.ErrNotAncestor) {
		// The node's snapshot fell out of the retention window.
		local = ""
		stream, err = s.sc.Send("", latest.Name)
	}
	if err != nil {
		return SyncReport{}, err
	}
	if local == "" {
		// Full re-replication: the node starts from an empty replica.
		rep.Mode = SyncFull
		if target, err = zvol.New(s.cfg.Volume); err != nil {
			return SyncReport{}, err
		}
		if s.tel != nil {
			target.SetCounters(s.tel.Counters())
		}
	}
	if err := handOver(nil, nodeID, target, s.sc.Prepare(stream), nil); err != nil {
		return SyncReport{}, fmt.Errorf("core: %s sync receive on %s: %w", rep.Mode, nodeID, err)
	}
	if rep.Mode == SyncFull {
		s.state.Lock()
		r.ccv = target
		// The damaged replica was thrown away wholesale; the fresh one is
		// clean by construction (the receive verified every block).
		r.damaged = nil
		s.state.Unlock()
	}
	rep.Bytes = stream.SizeBytes()
	rep.XferSec = s.cl.Unicast(s.cl.Storage[0], r.node, rep.Bytes)
	return heal(rep), nil
}
