// Node crash/restart lifecycle, at-rest bit-rot, background scrub, and
// peer-assisted resilver. The paper leans on ZFS for on-disk integrity
// (§2.2: checksummed blocks, scrub, resilvering); this file is the
// deployment-level half of that substitution:
//
//	CrashNode     whole-node failure: the node drops offline mid-whatever
//	              (possibly with a torn zfs-recv journal) and is withdrawn
//	              from the peer index.
//	RestartNode   the recovery audit every node runs on the way back up:
//	              roll back a torn receive journal, scrub the replica,
//	              quarantine any damage, and decide whether the node is
//	              lagging (missed registrations while down).
//	InjectRot     seeds latent at-rest corruption from the deterministic
//	              fault plan — flipped bytes that sit silently until a
//	              read or a scrub finds them.
//	ScrubNode     the background integrity pass: verify every stored
//	              block, quarantine damage, withdraw damaged nodes.
//	ResilverNode  repair quarantined blocks from the cheapest healthy
//	              source — a peer replica first (verified reads), the PFS
//	              as fallback — then prove the replica clean and
//	              re-announce it.
//	Health        the per-node state dump an operator would watch.
//
// The standing invariant: a corrupt byte is never served. Read-time
// checksums fail damaged reads everywhere; on top of that, a node with
// *known* damage is withdrawn from the peer index entirely until a
// resilver (or full re-replication) proves it clean.
//
// Scrub and resilver serialize per node (the node lock), not per
// deployment: scrubbing node A never blocks a boot on node B. ScrubAll
// and ResilverAll walk nodes in node-ID order, taking one node lock at a
// time, and honor context cancellation between nodes (resilver also
// between blocks).
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/zvol"
)

// CrashNode fails a whole compute node at time at: it drops offline,
// its peer-index announcements are withdrawn, and — unlike a polite
// SetOnline(false) — nothing about its replica is assumed. If the crash
// interrupted a receive, the open journal stays open until RestartNode
// (or SyncNode) rolls it back. Whether the node comes back lagging is
// decided by the restart audit, not here.
func (s *Squirrel) CrashNode(nodeID string, at time.Time) error {
	r, err := s.replica(nodeID)
	if err != nil {
		return err
	}
	s.nodeDown(r, at, false)
	s.counters(s.injector()).Add("life.crash", 1)
	return nil
}

// RecoveryReport is the result of one restart-time audit.
type RecoveryReport struct {
	NodeID   string
	Downtime time.Duration // how long the node was down (0 if unknown)

	// Journal audit (torn zfs-recv rollback).
	RolledBack     bool
	RolledBackSnap string // snapshot the torn stream was carrying

	// Integrity audit.
	Scrub   zvol.ScrubReport
	Damaged int // corrupt+missing blocks quarantined (== len of damage set)

	// Lagging is true when the node must SyncNode before serving new
	// snapshots: it rolled back a receive or missed registrations while
	// down. Its first boot heals it, as ever.
	Lagging bool
}

// RestartNode brings a crashed (or stopped) node back up at time at,
// running the recovery audit first: an open receive journal is rolled
// back (the torn snapshot simply never happened on this node), the
// replica is scrubbed, any damage is quarantined and keeps the node
// withdrawn from the peer index, and staleness against the scVolume
// marks it lagging. A clean, current node re-announces its holdings and
// is immediately eligible to serve peers again.
func (s *Squirrel) RestartNode(nodeID string, at time.Time) (RecoveryReport, error) {
	r, err := s.replica(nodeID)
	if err != nil {
		return RecoveryReport{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	inj := s.injector()
	sp := s.tr.StartOp(obs.OpRestart, nodeID, "")
	defer sp.Finish()
	rep := RecoveryReport{NodeID: nodeID}
	s.state.RLock()
	ccv, down := r.ccv, r.downSince
	s.state.RUnlock()
	if !down.IsZero() && at.After(down) {
		rep.Downtime = at.Sub(down)
	}
	if rr := ccv.Recover(); rr.RolledBack {
		rep.RolledBack = true
		rep.RolledBackSnap = rr.Snapshot
		s.markLagging(r)
		s.counters(inj).Add("recover.rollback", 1)
		sp.Annotate("rolled_back", 1)
	}
	rep.Scrub = s.scrubGuarded(sp, r, at)
	s.state.Lock()
	rep.Damaged = len(r.damaged)
	// Staleness check: missed registrations while down mean SyncNode.
	if latest := s.sc.LatestSnapshot(); latest != nil {
		local := ccv.LatestSnapshot()
		if local == nil || local.Name != latest.Name {
			r.lagging = true
		}
	}
	rep.Lagging = r.lagging
	if rep.Lagging {
		sp.Annotate("lagging", 1)
	}
	r.online = true
	r.downSince = time.Time{}
	s.idx.NodeUp(nodeID)
	s.announceHoldingsLocked(r) // no-op withdrawal if damaged
	s.state.Unlock()
	s.counters(inj).Add("life.restart", 1)
	return rep, nil
}

// InjectRot seeds latent at-rest corruption on one node's replica from
// the deployment's fault plan: each stored block rots independently
// with probability Plan.Rot, at a byte offset and with a flip mask that
// are pure functions of (seed, node, object, block). Nothing is
// detected or demoted here — the damage sits silently until a read
// fails it or a scrub finds it, exactly like real bit-rot. Returns the
// refs of the blocks rotted (a scrub must report at least these; dedup
// aliases of a rotted payload surface additionally).
func (s *Squirrel) InjectRot(nodeID string) ([]zvol.BlockRef, error) {
	r, err := s.replica(nodeID)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ccv := s.ccVolume(r)
	inj := s.injector()
	var rotted []zvol.BlockRef
	for _, obj := range ccv.Objects() {
		infos, err := ccv.BlockInfos(obj)
		if err != nil {
			return rotted, err
		}
		for idx, bi := range infos {
			if bi.Zero || !inj.RotBlock(nodeID, obj, idx) {
				continue
			}
			off, xor := inj.RotMutation(nodeID, obj, idx, int(bi.PhysLen))
			if err := ccv.CorruptStoredBlock(obj, idx, int64(off), xor); err != nil {
				return rotted, err
			}
			rotted = append(rotted, zvol.BlockRef{Object: obj, Index: idx})
		}
	}
	return rotted, nil
}

// ScrubNode runs an integrity pass over one node's replica at time at.
// Damage is quarantined in the deployment's damage set and the node is
// withdrawn from the peer index until a resilver clears it.
func (s *Squirrel) ScrubNode(ctx context.Context, nodeID string, at time.Time) (zvol.ScrubReport, error) {
	if err := ctx.Err(); err != nil {
		return zvol.ScrubReport{}, fmt.Errorf("core: scrub %s: %w", nodeID, err)
	}
	r, err := s.replica(nodeID)
	if err != nil {
		return zvol.ScrubReport{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return s.scrubGuarded(nil, r, at), nil
}

// ScrubAll scrubs every compute node (the nightly cron pass) in sorted
// node order, returning reports keyed by node ID. Cancellation between
// nodes returns the partial map alongside the context error.
func (s *Squirrel) ScrubAll(ctx context.Context, at time.Time) (map[string]zvol.ScrubReport, error) {
	out := make(map[string]zvol.ScrubReport, len(s.order))
	for _, r := range s.order {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("core: scrub pass: %w", err)
		}
		r.mu.Lock()
		out[r.node.ID] = s.scrubGuarded(obs.SpanFromContext(ctx), r, at)
		r.mu.Unlock()
	}
	return out, nil
}

// scrubGuarded scrubs one replica, updates the damage set, and keeps the
// peer index honest. The span roots when parent is nil (a direct or
// cron scrub) and nests otherwise (restart audit, resilver rescrub).
// Caller holds the node lock.
func (s *Squirrel) scrubGuarded(parent *obs.Span, r *replica, at time.Time) zvol.ScrubReport {
	sp := s.tr.Op(parent, obs.OpScrub, r.node.ID, "")
	rep := s.ccVolume(r).Scrub()
	s.state.Lock()
	if !at.IsZero() {
		r.lastScrub = at
	}
	r.damaged = append([]zvol.BlockRef(nil), rep.Damaged...)
	if !rep.Clean() {
		// A rotten node must not serve peers until resilvered; it knows
		// its own damage, so this retraction is self-initiated and works
		// in both index modes.
		s.idx.Retract(r.node.ID)
	}
	s.state.Unlock()
	ctr := s.counters(s.injector())
	ctr.Add("scrub.runs", 1)
	ctr.Add("scrub.blocks", int64(rep.Blocks))
	ctr.Add("scrub.corrupt", int64(rep.CorruptBlocks))
	ctr.Add("scrub.missing", int64(rep.MissingBlocks))
	sp.AddBytes(int64(rep.Blocks) * int64(s.cfg.Volume.BlockSize))
	sp.Annotate("blocks", int64(rep.Blocks))
	if n := rep.CorruptBlocks + rep.MissingBlocks; n > 0 {
		sp.Annotate("damaged", int64(n))
	}
	sp.Finish()
	return rep
}

// ResilverReport accounts one resilver pass over a node's damage set.
type ResilverReport struct {
	NodeID string
	Blocks int // damaged blocks targeted

	Repaired int
	Failed   int // no source could produce verified bytes

	// Source breakdown: the resilver prefers healthy peer replicas
	// (cheap, scattered) and falls back to the PFS.
	PeerBlocks int
	PFSBlocks  int
	PeerBytes  int64
	PFSBytes   int64
	XferSec    float64 // simulated transfer time across all repairs

	Clean bool // the closing scrub found the replica spotless
}

// ResilverNode repairs every quarantined block on nodeID by asking the
// source ladder a cold boot climbs (chainBackend, entered below the
// local replica) for the block's range of its cache object: the peer
// exchange first — least-loaded eligible holder, serve slots, breakers,
// never across an open cut — the PFS otherwise. A node stranded from
// every source repairs nothing and reports it; that is not an error.
// Each repair is checksum-verified before it is written — RepairBlock
// rejects a payload that does not hash to the block pointer — and a
// closing scrub decides whether the node is clean enough to re-announce
// to the peer index. Cancellation between blocks stops the pass; the
// blocks already repaired stay repaired and the rest stay quarantined.
func (s *Squirrel) ResilverNode(ctx context.Context, nodeID string, at time.Time) (ResilverReport, error) {
	if err := ctx.Err(); err != nil {
		return ResilverReport{}, fmt.Errorf("core: resilver %s: %w", nodeID, err)
	}
	r, err := s.replica(nodeID)
	if err != nil {
		return ResilverReport{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return s.resilverCtx(ctx, nil, r, at)
}

// ResilverAll resilvers every node with a non-empty damage set (the
// background repair pass that follows a scrub cycle), in node order.
func (s *Squirrel) ResilverAll(ctx context.Context, at time.Time) ([]ResilverReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: resilver pass: %w", err)
	}
	var damaged []*replica
	s.state.RLock()
	for _, r := range s.order {
		if len(r.damaged) > 0 {
			damaged = append(damaged, r)
		}
	}
	s.state.RUnlock()
	out := make([]ResilverReport, 0, len(damaged))
	for _, r := range damaged {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("core: resilver pass: %w", err)
		}
		r.mu.Lock()
		rep, err := s.resilverCtx(ctx, obs.SpanFromContext(ctx), r, at)
		r.mu.Unlock()
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// resilverCtx wraps the resilver body in a span: a root "resilver"
// when run directly or by the background pass, a child of the boot that
// triggered it otherwise. Caller holds the node lock.
func (s *Squirrel) resilverCtx(ctx context.Context, parent *obs.Span, r *replica, at time.Time) (ResilverReport, error) {
	sp := s.tr.Op(parent, obs.OpResilver, r.node.ID, "")
	rep, err := s.resilver(ctx, sp, r, at)
	sp.AddBytes(rep.PeerBytes + rep.PFSBytes)
	sp.AddSim(rep.XferSec)
	if rep.Repaired > 0 {
		sp.Annotate("repaired", int64(rep.Repaired))
	}
	if rep.Failed > 0 {
		sp.Annotate("unrepaired", int64(rep.Failed))
	}
	if rep.PeerBlocks > 0 {
		sp.Annotate("peer_blocks", int64(rep.PeerBlocks))
	}
	if rep.PFSBlocks > 0 {
		sp.Annotate("pfs_blocks", int64(rep.PFSBlocks))
	}
	sp.Fail(err)
	sp.Finish()
	return rep, err
}

func (s *Squirrel) resilver(ctx context.Context, sp *obs.Span, r *replica, at time.Time) (ResilverReport, error) {
	ccv, nodeID := s.ccVolume(r), r.node.ID
	inj := s.injector()
	// A torn journal would make block indexes ambiguous; roll back first.
	if ccv.NeedsRecovery() {
		ccv.Recover()
		s.markLagging(r)
		s.counters(inj).Add("recover.rollback", 1)
	}
	// Rescrub for the authoritative damage list (the quarantined set may
	// predate deletes, GC, or a partial earlier resilver).
	scrub := s.scrubGuarded(sp, r, at)
	rep := ResilverReport{NodeID: nodeID, Blocks: len(scrub.Damaged)}
	ctr := s.counters(inj)
	// One fetcher for the pass: a repair read is a peer read like a boot's
	// (eligibility, serve slots, breakers, partitions), its faults drawn
	// under "resilver:<object>:<node>".
	f := s.newPeerFetcher(ctx, sp, "resilver", "", r.node, inj)
	var cb *chainBackend
	var infos []zvol.BlockInfo // the replica's block layout of cb's object
	for _, ref := range scrub.Damaged {
		if err := ctx.Err(); err != nil {
			return rep, fmt.Errorf("core: resilver %s: %w", nodeID, err)
		}
		if cb == nil || cb.id != ref.Object {
			cb = s.resilverSource(f, ref.Object)
			infos, _ = ccv.BlockInfos(ref.Object) // gone: no block is in range below
		}
		data, viaPeer := s.readDamagedBlock(cb, infos, ref.Index, &rep)
		if data == nil || ccv.RepairBlock(ref.Object, ref.Index, data) != nil {
			// No source produced verified bytes — or RepairBlock refused
			// them, which a verified fetch + deterministic re-encode should
			// never see; either way a failed block, not a fatal error.
			rep.Failed++
			ctr.Add("resilver.failed", 1)
			continue
		}
		rep.Repaired++
		ctr.Add("resilver.repaired", 1)
		if viaPeer {
			rep.PeerBlocks++
			rep.PeerBytes += int64(len(data))
			ctr.Add("resilver.peer_bytes", int64(len(data)))
		} else {
			rep.PFSBlocks++
			rep.PFSBytes += int64(len(data))
			ctr.Add("resilver.pfs_bytes", int64(len(data)))
		}
	}
	// Closing scrub: only a spotless replica rejoins the peer exchange.
	closing := s.scrubGuarded(sp, r, at)
	rep.Clean = closing.Clean()
	if rep.Clean {
		s.state.Lock()
		s.announceHoldingsLocked(r)
		s.state.Unlock()
	}
	return rep, nil
}

// resilverSource is the source ladder for one damaged object, entered
// below rung zero (the local replica is what is being repaired). nil
// when the object was deregistered while quarantined: unrepairable.
func (s *Squirrel) resilverSource(f *peerFetcher, object string) *chainBackend {
	s.state.RLock()
	im := s.images[object]
	s.state.RUnlock()
	if im == nil {
		return nil
	}
	cb, err := newChainBackend(s, im, nil, f.bootNode)
	if err != nil {
		return nil
	}
	f.target(object)
	cb.fetch = f
	return cb
}

// readDamagedBlock obtains the verified content of one damaged block by
// asking the ladder for the block's range of the cache object: a healthy
// peer replica first (read-verified on the source, so a rotten peer can
// never donate bad bytes), the PFS second. Returns nil when no source
// could produce the bytes. Caller holds the target node's lock.
func (s *Squirrel) readDamagedBlock(cb *chainBackend, infos []zvol.BlockInfo, idx int, rep *ResilverReport) (data []byte, viaPeer bool) {
	if cb == nil || idx >= len(infos) {
		return nil, false
	}
	data = make([]byte, infos[idx].LogLen)
	moved, peer := cb.fetch.moved+cb.networkBytes, cb.peerBytes
	rest := data
	err := cb.readRemote(int64(idx)*int64(s.cfg.Volume.BlockSize), int64(len(data)),
		func(p []byte) { rest = rest[copy(rest, p):] })
	rep.XferSec += s.cl.Fabric.TransferSec(cb.fetch.moved + cb.networkBytes - moved)
	if err != nil {
		return nil, false
	}
	return data, cb.peerBytes > peer
}

// NodeState is the coarse per-node condition shown by Health.
type NodeState string

// Node states, worst first.
const (
	StateDown        NodeState = "down"        // offline (crashed or stopped)
	StateResilvering NodeState = "resilvering" // quarantined damage awaiting repair
	StateLagging     NodeState = "lagging"     // missed registrations; SyncNode heals
	StateHealthy     NodeState = "healthy"
)

// NodeStatus is one row of the deployment health dump.
type NodeStatus struct {
	NodeID string
	State  NodeState

	Online  bool
	Lagging bool

	CorruptBlocks int       // quarantined damage (corrupt + missing)
	LastScrub     time.Time // zero if never scrubbed
	DownSince     time.Time // zero unless currently down

	// Withdrawn reports the node has no peer-index announcements: it is
	// invisible to the peer exchange (down, damaged, or empty).
	Withdrawn bool
	Snapshot  string // latest local snapshot ("" if none)
	// Breaker is the node's serve circuit-breaker state ("closed",
	// "open", "half-open"; empty when breakers are disabled).
	Breaker string
	// Unreachable reports the node sits across an open network cut.
	Unreachable bool

	// ViewLeases / ViewStale size the node's local gossip view: live
	// leases it carries for the ranges it owns, and expired leases a
	// round has yet to prune (both zero in central mode — the manager
	// holds the only view).
	ViewLeases int
	ViewStale  int
}

// Health reports per-node lifecycle state, sorted by node ID — what
// `squirrelctl -health` prints and what the chaos soak asserts on.
func (s *Squirrel) Health() []NodeStatus {
	s.state.RLock()
	defer s.state.RUnlock()
	out := make([]NodeStatus, 0, len(s.order))
	for _, r := range s.order {
		id := r.node.ID
		st := NodeStatus{
			NodeID:        id,
			Online:        r.online,
			Lagging:       r.lagging,
			CorruptBlocks: len(r.damaged),
			LastScrub:     r.lastScrub,
			DownSince:     r.downSince,
			Withdrawn:     s.idx.AnnouncedBy(id) == 0,
			Breaker:       s.ledger.BreakerState(id),
			Unreachable:   s.cl.Unreachable(id),
		}
		if s.gossip != nil {
			st.ViewLeases, st.ViewStale = s.gossip.ViewStats(id)
		}
		if snap := r.ccv.LatestSnapshot(); snap != nil {
			st.Snapshot = snap.Name
		}
		switch {
		case !st.Online:
			st.State = StateDown
		case st.CorruptBlocks > 0:
			st.State = StateResilvering
		case st.Lagging:
			st.State = StateLagging
		default:
			st.State = StateHealthy
		}
		out = append(out, st)
	}
	return out
}
