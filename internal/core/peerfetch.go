package core

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/peer"
)

// peerFetcher resolves one boot's cold-cache misses against replicas on
// neighboring compute nodes: the lookup half of the peer block exchange.
// For every miss inside the image's cache extents it asks the content
// index for holders, picks the least-loaded eligible source (never the
// booting node itself, never offline, lagging, or unreachable nodes,
// never a node with all serve slots busy), transfers the range over
// cluster unicast with exact NIC byte accounting, and on a fault fails
// over to the next candidate. When the attempt budget is spent the
// caller falls back to the PFS, so a boot always completes.
//
// With Policy.Hedge set, a transfer whose source draws a slow serve is
// cloned to the next-best holder after the hedge threshold: first byte
// wins, and the losing leg is cancelled through the boot's context
// before it moves a payload byte. Every serve outcome also feeds the
// index's per-peer circuit breakers, so a peer that keeps failing stops
// being selected at all.
//
// Transfer faults come from the deployment's fault.Injector under the op
// key "peerfetch:<image>:<node>" with a per-boot attempt sequence, so a
// chaos run's peer-fetch outcomes are replayable from the plan seed and
// the boot order alone.
type peerFetcher struct {
	s        *Squirrel
	ctx      context.Context // the boot's context; hedge legs derive from it
	imageID  string
	bootNode *cluster.Node
	policy   peer.Policy
	faults   *fault.Injector // captured at boot start (SetFaults may swap mid-run)
	op       string
	sp       *obs.Span // the owning boot span; each fetch records a peerFetch child

	seq       int              // transfer attempts so far (fault lane)
	fetchNo   int              // fetches so far (slow-serve lane)
	buf       []byte           // the range as read at the source, reused across transfers
	served    map[string]int64 // bytes served per source
	fallbacks int              // misses the peer path gave up on

	hedgesFired int     // slow serves that cloned a second leg
	hedgesWon   int     // hedge legs that delivered the range
	trips       int     // circuit breakers this boot's failures tripped
	stallSec    float64 // simulated stall time slow serves cost this boot
}

func (s *Squirrel) newPeerFetcher(ctx context.Context, im *corpus.Image, node *cluster.Node) *peerFetcher {
	inj := s.injector()
	return &peerFetcher{
		s:        s,
		ctx:      reqCtx(ctx),
		imageID:  im.ID,
		bootNode: node,
		policy:   s.cfg.Peer,
		faults:   inj,
		op:       "peerfetch:" + im.ID + ":" + node.ID,
		served:   make(map[string]int64),
	}
}

// fetch fills dst from a peer replica's cache object at [base,
// base+len(dst)), trying up to MaxAttempts candidate sources. It returns
// false when no peer could serve the range — the caller then reads the
// PFS.
func (f *peerFetcher) fetch(dst []byte, base int64) bool {
	ctr := f.s.peers.Counters()
	fsp := f.sp.Child(obs.OpPeerFetch, "", f.imageID)
	f.fetchNo++
	tried := make(map[string]bool)
	for attempt := 0; attempt < f.policy.MaxAttempts; attempt++ {
		src, release, ok, busy := f.acquire(tried)
		if !ok {
			if busy {
				ctr.Add("peer.busy", 1)
				fsp.Annotate("busy", 1)
			} else if attempt == 0 {
				// No holder anywhere: a pure index miss, not a fallback
				// after failed transfers.
				ctr.Add("peer.miss", 1)
				fsp.Annotate("miss", 1)
				fsp.Finish()
				return false
			}
			break
		}
		tried[src] = true
		fsp.Annotate("attempts", 1)
		if winner, ok := f.transferHedged(fsp, tried, src, release, dst, base); ok {
			ctr.Add("peer.hit", 1)
			ctr.Add("peer.bytes", int64(len(dst)))
			f.served[winner] += int64(len(dst))
			fsp.SetNode(winner)
			fsp.AddBytes(int64(len(dst)))
			fsp.AddSim(f.s.cl.Fabric.TransferSec(int64(len(dst))))
			fsp.Finish()
			return true
		}
	}
	f.fallbacks++
	ctr.Add("peer.fallback", 1)
	fsp.Annotate("fallback", 1)
	fsp.Finish()
	return false
}

// transferHedged runs one acquired transfer, hedging it onto a second
// holder when the primary draws a slow serve. It returns the node that
// delivered the range ("" on failure). The slow-serve lane is a pure
// function of (op, source, fetchNo), so which leg leads — and therefore
// which one wins under identical fault draws — is deterministic no
// matter how many boots run concurrently.
func (f *peerFetcher) transferHedged(fsp *obs.Span, tried map[string]bool,
	src string, release func(int64), dst []byte, base int64) (string, bool) {
	ctr := f.s.peers.Counters()
	slow := f.faults.SlowServe(f.op, src, f.fetchNo)
	stall := func() {
		f.stallSec += f.faults.Plan().SlowSec
		fsp.Annotate("slow", 1)
	}
	if !slow || !f.policy.Hedge {
		if slow {
			// Unhedged deployments absorb the stall — the baseline the
			// slow-peer benchmark compares the hedged path against.
			stall()
		}
		return src, f.transfer(src, dst, base, release)
	}
	// The primary stalled past the hedge threshold: clone the fetch to
	// the next-best holder. No second holder means nothing to race —
	// absorb the stall like an unhedged fetch.
	h, hrel, ok, _ := f.acquire(tried)
	if !ok {
		stall()
		return src, f.transfer(src, dst, base, release)
	}
	tried[h] = true
	f.hedgesFired++
	ctr.Add("peer.hedge_fired", 1)
	fsp.Annotate("hedged", 1)

	// First byte wins: the un-stalled leg leads; if the hedge leg drew a
	// slow serve too, the primary keeps the lead (its stall started
	// first) and the stall is paid either way.
	first, firstRel := h, hrel
	second, secondRel := src, release
	hslow := f.faults.SlowServe(f.op, h, f.fetchNo)
	if hslow {
		first, firstRel = src, release
		second, secondRel = h, hrel
		stall()
	}
	// The losing leg is cancelled through the boot's context plumbing
	// before it moves a payload byte; releasing its serve slot is
	// idempotent (sync.Once), so a leg promoted after the leader faults
	// releases cleanly even though the watcher fires too.
	hctx, cancel := context.WithCancel(f.ctx)
	loserDone := make(chan struct{})
	go func() {
		<-hctx.Done()
		secondRel(0)
		close(loserDone)
	}()
	win := func(node string) (string, bool) {
		cancel()
		<-loserDone
		if node == first {
			ctr.Add("peer.hedge_cancelled", 1)
		}
		if node == h {
			f.hedgesWon++
			ctr.Add("peer.hedge_won", 1)
		}
		return node, true
	}
	if f.transfer(first, dst, base, firstRel) {
		return win(first)
	}
	if !hslow {
		// The fast hedge leg faulted; the transfer falls back to the
		// stalled primary, so its stall is paid after all.
		stall()
	}
	if f.transfer(second, dst, base, secondRel) {
		return win(second)
	}
	cancel()
	<-loserDone
	return "", false
}

// acquire reserves a serve slot on the best eligible holder. Holders
// come from the configured content index as seen from the booting node
// (exact for central, a bounded-staleness owner view for gossip);
// deployment eligibility (online, reachable, not lagging, replica
// actually present) is then snapshotted under the state read-lock, and
// the serve-slot index is consulted without core locks held, keeping
// lock order one-way (state before index locks, never the reverse).
// The eligibility filter is also what makes gossip staleness safe: a
// lease whose holder crashed a moment ago resolves here, fails the
// online check, and is never fetched from.
func (f *peerFetcher) acquire(tried map[string]bool) (string, func(int64), bool, bool) {
	s := f.s
	holders := s.idx.Holders(f.imageID, f.bootNode.ID)
	s.state.RLock()
	eligible := make(map[string]bool)
	for _, id := range holders {
		if tried[id] || id == f.bootNode.ID || !s.online[id] || s.lagging[id] ||
			len(s.damaged[id]) > 0 || !s.cl.Reachable(f.bootNode.ID, id) {
			continue
		}
		if ccv := s.cc[id]; ccv != nil && ccv.HasObject(f.imageID) {
			eligible[id] = true
		}
	}
	s.state.RUnlock()
	return s.peers.AcquireFrom(holders, f.policy.MaxServeSlots,
		func(id string) bool { return !eligible[id] })
}

// transfer moves one range from src to the booting node, applying the
// deployment's fault injector. NIC counters account exactly the bytes
// that crossed the fabric: the full range on success and on corruption
// (damage is detected at the receiver), the delivered prefix on
// truncation, nothing on a drop or source crash. Every outcome feeds
// src's circuit breaker.
func (f *peerFetcher) transfer(src string, dst []byte, base int64, release func(int64)) bool {
	s := f.s
	ctr := s.peers.Counters()
	done := func(served int64, ok bool) bool {
		release(served)
		if s.peers.RecordServe(src, ok) {
			f.trips++
		}
		return ok
	}
	payload, err := f.sourceRange(src, base, len(dst))
	if err != nil {
		// The source cannot serve this range: its replica vanished between
		// index lookup and read (dropped or deregistered concurrently), or
		// a block under the range failed its checksum there (latent rot —
		// the source's other ranges stay servable). A failed attempt.
		ctr.Add("peer.stale", 1)
		return done(0, false)
	}
	f.seq++
	kind, got := f.faults.Strike(f.op, src, f.seq, payload)
	if kind != fault.None {
		ctr.Add("peer.fault", 1)
	}
	srcNode, err := s.computeNode(src)
	if err != nil {
		return done(0, false)
	}
	if kind == fault.Crash || kind == fault.Torn {
		// The source dies mid-serve (for a one-way peer read a torn apply
		// and a plain crash are the same event): it drops offline, its
		// announcements are withdrawn, and its next boot heals it.
		s.state.Lock()
		s.online[src] = false
		s.lagging[src] = true
		s.state.Unlock()
		s.idx.NodeDown(src)
		ctr.Add("peer.crash", 1)
		return done(0, false)
	}
	if len(got) > 0 {
		srcNode.Send(int64(len(got)))
		f.bootNode.Recv(int64(len(got)))
	}
	if kind != fault.None {
		// Truncated or corrupted transfers moved bytes but deliver no
		// usable data (per-block checksums reject them at the receiver).
		ctr.Add("peer.wasted_bytes", int64(len(got)))
		return done(0, false)
	}
	copy(dst, got)
	return done(int64(len(dst)), true)
}

// sourceRange reads [base, base+n) of the source's cache object into the
// fetcher's buffer, decoding (and verifying) only the blocks under the
// range. The returned slice is valid until the next call.
func (f *peerFetcher) sourceRange(src string, base int64, n int) ([]byte, error) {
	ccv := f.s.ccVolume(src)
	if ccv == nil {
		return nil, ErrUnknownNode
	}
	if cap(f.buf) < n {
		f.buf = make([]byte, n)
	}
	buf := f.buf[:n]
	if err := ccv.ReadAt(f.imageID, buf, base); err != nil {
		return nil, err
	}
	return buf, nil
}

// topSource is the peer that served the most bytes this boot, breaking
// ties by node ID for determinism.
func (f *peerFetcher) topSource() string {
	top, topBytes := "", int64(0)
	for id, b := range f.served {
		if b > topBytes || (b == topBytes && top != "" && id < top) {
			top, topBytes = id, b
		}
	}
	return top
}
