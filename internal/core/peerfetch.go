package core

import (
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/peer"
)

// peerFetcher is rung one of the source ladder (chainBackend): it
// resolves the cache-object ranges one reader — a boot, or a resilver
// pass — could not serve from its own replica against replicas on
// neighboring compute nodes. For every range it asks the content index
// for holders, picks the least-loaded eligible source (never the reading
// node itself, never offline, lagging, damaged or unreachable nodes,
// never a node with all serve slots busy), transfers the range over
// cluster unicast with exact NIC byte accounting, and on a fault fails
// over to the next candidate. When the attempt budget is spent the
// caller falls back to the PFS, so a read always completes.
//
// With Policy.Hedge set, a transfer whose source draws a slow serve is
// cloned to the next-best holder after the hedge threshold: first byte
// wins, and the losing leg is cancelled through the boot's context
// before it moves a payload byte. Every serve outcome also feeds the
// ledger's per-peer circuit breakers, so a peer that keeps failing stops
// being selected at all.
//
// Transfer faults come from the deployment's fault.Injector under the op
// key "<kind>:<object>:<node>" — "peerfetch" for a boot, "resilver" for
// a repair pass — with a per-reader attempt sequence, so a chaos run's
// peer-fetch outcomes are replayable from the plan seed and the
// operation order alone.
type peerFetcher struct {
	s        *Squirrel
	ctx      context.Context // the reader's context; hedge legs derive from it
	kind     string          // op-key prefix: "peerfetch" | "resilver"
	imageID  string
	bootNode *cluster.Node // the node the bytes are for
	policy   peer.Policy
	faults   *fault.Injector // captured at the reader's start (SetFaults may swap mid-run)
	op       string
	sp       *obs.Span // the owning boot/resilver span; each fetch records a peerFetch child

	seq       int              // transfer attempts so far (fault lane)
	fetchNo   int              // fetches so far (slow-serve lane)
	served    map[string]int64 // bytes served per source
	moved     int64            // bytes that crossed the fabric, delivered or wasted
	fallbacks int              // misses the peer path gave up on

	hedgesFired int     // slow serves that cloned a second leg
	hedgesWon   int     // hedge legs that delivered the range
	trips       int     // circuit breakers this boot's failures tripped
	stallSec    float64 // simulated stall time slow serves cost this boot
}

func (s *Squirrel) newPeerFetcher(ctx context.Context, sp *obs.Span, kind, object string, node *cluster.Node) *peerFetcher {
	f := &peerFetcher{
		s:        s,
		ctx:      ctx,
		kind:     kind,
		bootNode: node,
		policy:   s.cfg.Peer,
		faults:   s.injector(),
		sp:       sp,
	}
	f.target(object)
	return f
}

// target points the fetcher at one cache object. A resilver pass walks
// several objects under one attempt sequence, so the fault lane's draws
// stay a function of the pass, not of how its blocks group by object.
func (f *peerFetcher) target(object string) {
	f.imageID = object
	f.op = f.kind + ":" + object + ":" + f.bootNode.ID
}

// fetch fills dst from a peer replica's cache object at [base,
// base+len(dst)), trying up to peer.DefaultMaxAttempts candidate
// sources. It returns false when no peer could serve the range — the
// caller then reads the PFS.
func (f *peerFetcher) fetch(dst []byte, base int64) bool {
	ctr := f.s.ledger.Counters()
	fsp := f.sp.Child(obs.OpPeerFetch, "", f.imageID)
	f.fetchNo++
	tried := make(map[string]bool)
	for attempt := 0; attempt < peer.DefaultMaxAttempts; attempt++ {
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
			if f.served == nil {
				f.served = make(map[string]int64)
			}
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
	ctr := f.s.ledger.Counters()
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
// come from the configured content index as seen from the reading node
// (exact for central, a bounded-staleness owner view for gossip);
// deployment eligibility — the one predicate for every cross-node read:
// online, not lagging, no known damage, reachable from the reader,
// replica actually present — is then snapshotted under the state read-lock, and
// the serve ledger is consulted without core locks held, keeping lock
// order one-way (state before ledger lock, never the reverse).
// The eligibility filter is also what makes gossip staleness safe: a
// lease whose holder crashed a moment ago resolves here, fails the
// online check, and is never fetched from.
func (f *peerFetcher) acquire(tried map[string]bool) (string, func(int64), bool, bool) {
	s := f.s
	holders := s.idx.Holders(f.imageID, f.bootNode.ID)
	s.state.RLock()
	eligible := make(map[string]bool)
	for _, id := range holders {
		r := s.replicas[id]
		if r == nil || tried[id] || id == f.bootNode.ID || !r.online || r.lagging ||
			len(r.damaged) > 0 || !s.cl.Reachable(f.bootNode.ID, id) {
			continue
		}
		if r.ccv.HasObject(f.imageID) {
			eligible[id] = true
		}
	}
	s.state.RUnlock()
	return s.ledger.Acquire(holders, f.policy.MaxServeSlots,
		func(id string) bool { return !eligible[id] })
}

// transfer moves one range from src to the reading node, applying the
// deployment's fault injector. The source verifies (and, unless its
// decode cache holds them, decodes) only the blocks under the range and
// copies them into dst. NIC counters account
// exactly the bytes that crossed the fabric: the full range on success
// and on corruption (damage is detected at the receiver), the delivered
// prefix on truncation, nothing on a drop or source crash. Every outcome
// feeds src's circuit breaker; on failure dst's contents are unspecified.
func (f *peerFetcher) transfer(src string, dst []byte, base int64, release func(int64)) bool {
	s, r := f.s, f.s.replicas[src]
	ctr := s.ledger.Counters()
	done := func(served int64, ok bool) bool {
		release(served)
		if s.ledger.RecordServe(src, ok) {
			f.trips++
		}
		return ok
	}
	if err := s.ccVolume(r).ReadAt(f.imageID, dst, base); err != nil {
		// The source cannot serve this range: its replica vanished between
		// index lookup and read (dropped or deregistered concurrently), or
		// a block under the range failed its checksum there (latent rot —
		// the source's other ranges stay servable). A failed attempt.
		ctr.Add("peer.stale", 1)
		return done(0, false)
	}
	f.seq++
	kind, got := f.faults.Strike(f.op, src, f.seq, dst)
	if kind != fault.None {
		ctr.Add("peer.fault", 1)
	}
	if kind == fault.Crash || kind == fault.Torn {
		// The source dies mid-serve (for a one-way peer read a torn apply
		// and a plain crash are the same event): it drops offline, its
		// announcements are withdrawn, and its next boot heals it.
		s.nodeDown(r, time.Time{}, true)
		ctr.Add("peer.crash", 1)
		return done(0, false)
	}
	if n := int64(len(got)); n > 0 {
		r.node.Send(n)
		f.bootNode.Recv(n)
		f.moved += n
	}
	if kind != fault.None {
		// Truncated or corrupted transfers moved bytes but deliver no
		// usable data (per-block checksums reject them at the receiver).
		ctr.Add("peer.wasted_bytes", int64(len(got)))
		return done(0, false)
	}
	return done(int64(len(dst)), true)
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
