package core

import (
	"context"
	"slices"
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
// never a node with all serve slots busy), lends the reader the range
// straight out of that replica, accounting it to cluster unicast with
// exact NIC bytes, and on a fault fails over to the next candidate. When
// the attempt budget is spent the caller falls back to the PFS, so a
// read always completes.
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

	seq       int           // transfer attempts so far (fault lane)
	fetchNo   int           // fetches so far (slow-serve lane)
	tried     []string      // sources the current fetch has tried, primaries and hedge legs: in triedBuf
	served    []sourceBytes // bytes served per source, in first-served order: in servedBuf unless more sources served
	eligible  []string      // the last lookup's eligible holders: in eligibleBuf unless more were eligible
	moved     int64         // bytes that crossed the fabric, delivered or wasted
	fallbacks int           // misses the peer path gave up on

	// legs are the serve slots of the transfer in flight: the primary
	// and, while it is hedged, the hedge leg.
	legs        [2]peer.Serve
	triedBuf    [2 * peer.DefaultMaxAttempts]string // a primary and a hedge leg per attempt
	servedBuf   [4]sourceBytes
	eligibleBuf [8]string

	hedgesFired int     // slow serves that cloned a second leg
	hedgesWon   int     // hedge legs that delivered the range
	trips       int     // circuit breakers this boot's failures tripped
	stallSec    float64 // simulated stall time slow serves cost this boot
}

// newPeerFetcher builds a fetcher for one reader; faults is the injector
// the reader captured at its start.
func (s *Squirrel) newPeerFetcher(ctx context.Context, sp *obs.Span, kind, object string, node *cluster.Node, faults *fault.Injector) *peerFetcher {
	f := &peerFetcher{
		s:        s,
		ctx:      ctx,
		kind:     kind,
		bootNode: node,
		policy:   s.cfg.Peer,
		faults:   faults,
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

// fetch lends fn bytes [base, base+n) of a peer replica's cache object,
// in order and from one source, trying up to peer.DefaultMaxAttempts
// candidate sources. It returns false when no peer could serve the
// range — fn was then lent nothing, and the caller reads the PFS.
func (f *peerFetcher) fetch(base, n int64, fn func(p []byte)) bool {
	ctr := f.s.ledger.Counters()
	fsp := f.sp.Child(obs.OpPeerFetch, "", f.imageID)
	f.fetchNo++
	f.tried = f.triedBuf[:0]
	for attempt := 0; attempt < peer.DefaultMaxAttempts; attempt++ {
		primary := &f.legs[0]
		ok, busy := f.acquire(primary)
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
		f.tried = append(f.tried, primary.Node)
		fsp.Annotate("attempts", 1)
		if winner, ok := f.transferHedged(fsp, primary, base, n, fn); ok {
			ctr.Add("peer.hit", 1)
			ctr.Add("peer.bytes", n)
			f.serve(winner, n)
			fsp.SetNode(winner)
			fsp.AddBytes(n)
			fsp.AddSim(f.s.cl.Fabric.TransferSec(n))
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
func (f *peerFetcher) transferHedged(fsp *obs.Span, primary *peer.Serve,
	base, n int64, fn func(p []byte)) (string, bool) {
	ctr := f.s.ledger.Counters()
	src := primary.Node
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
		return src, f.transfer(primary, base, n, fn)
	}
	// The primary stalled past the hedge threshold: clone the fetch to
	// the next-best holder. No second holder means nothing to race —
	// absorb the stall like an unhedged fetch.
	hedge := &f.legs[1]
	if ok, _ := f.acquire(hedge); !ok {
		stall()
		return src, f.transfer(primary, base, n, fn)
	}
	h := hedge.Node
	f.tried = append(f.tried, h)
	f.hedgesFired++
	ctr.Add("peer.hedge_fired", 1)
	fsp.Annotate("hedged", 1)

	// First byte wins: the un-stalled leg leads; if the hedge leg drew a
	// slow serve too, the primary keeps the lead (its stall started
	// first) and the stall is paid either way.
	first, second := hedge, primary
	hslow := f.faults.SlowServe(f.op, h, f.fetchNo)
	if hslow {
		first, second = primary, hedge
		stall()
	}
	// The losing leg is cancelled through the boot's context plumbing
	// before it moves a payload byte, and a leg that faults lends fn
	// nothing, so the reader is lent the range once, by the winner.
	// Giving a leg's serve slot back is idempotent (the ledger clears the
	// Serve), so a leg promoted after the leader faults releases cleanly
	// even though the watcher fires too.
	hctx, cancel := context.WithCancel(f.ctx)
	loserDone := make(chan struct{})
	go func() {
		<-hctx.Done()
		f.s.ledger.Cancel(second)
		close(loserDone)
	}()
	win := func(node string) (string, bool) {
		cancel()
		<-loserDone
		if node == first.Node {
			ctr.Add("peer.hedge_cancelled", 1)
		}
		if node == h {
			f.hedgesWon++
			ctr.Add("peer.hedge_won", 1)
		}
		return node, true
	}
	if f.transfer(first, base, n, fn) {
		return win(first.Node)
	}
	if !hslow {
		// The fast hedge leg faulted; the transfer falls back to the
		// stalled primary, so its stall is paid after all.
		stall()
	}
	if f.transfer(second, base, n, fn) {
		return win(second.Node)
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
// online check, and is never fetched from. Holders this fetch has tried
// are not eligible either. The ledger is handed the eligible holders in
// the index's sorted order, filtered into the fetcher's own buffer (the
// index's slice is shared), and reserves the slot into sv.
func (f *peerFetcher) acquire(sv *peer.Serve) (ok, busy bool) {
	s := f.s
	holders := s.idx.Holders(f.imageID, f.bootNode.ID)
	if f.eligible == nil {
		f.eligible = f.eligibleBuf[:0]
	}
	eligible := f.eligible[:0]
	s.state.RLock()
	for _, id := range holders {
		r := s.replicas[id]
		if r == nil || slices.Contains(f.tried, id) || id == f.bootNode.ID || !r.online || r.lagging ||
			len(r.damaged) > 0 || !s.cl.Reachable(f.bootNode.ID, id) {
			continue
		}
		if r.ccv.HasObject(f.imageID) {
			eligible = append(eligible, id)
		}
	}
	s.state.RUnlock()
	f.eligible = eligible
	return s.ledger.Reserve(sv, eligible, f.policy.MaxServeSlots, nil)
}

// transfer lends fn one range of src's replica through the source's
// Visit, applying the deployment's fault injector. Visit verifies (and,
// unless its decode cache holds them, decodes) every block under the
// range before it lends any, so the attempt's fault is drawn at the first
// lent piece: after the source range passed its checks, before a byte
// reaches the reader. Only a fault-free attempt lends fn anything; a
// faulted one only counts what crossed the fabric. NIC counters account
// exactly those bytes: the full range on success and on corruption
// (damage is detected at the receiver), the delivered prefix on
// truncation, nothing on a drop or source crash. Every outcome feeds
// src's circuit breaker, in the same ledger call that gives sv's slot
// back.
func (f *peerFetcher) transfer(sv *peer.Serve, base, n int64, fn func(p []byte)) bool {
	src := sv.Node
	s, r := f.s, f.s.replicas[src]
	ctr := s.ledger.Counters()
	done := func(served int64, ok bool) bool {
		if s.ledger.Finish(sv, served, ok) {
			f.trips++
		}
		return ok
	}
	drawn, kind, got := false, fault.None, 0
	err := s.ccVolume(r).Visit(f.imageID, base, n, func(p []byte) {
		if !drawn {
			f.seq++
			kind, got = f.faults.Deliver(f.op, src, f.seq, int(n))
			drawn = true
		}
		if kind == fault.None {
			fn(p)
		}
	})
	if err != nil {
		// The source cannot serve this range: its replica vanished between
		// index lookup and read (dropped or deregistered concurrently), or
		// a block under the range failed its checksum there (latent rot —
		// the source's other ranges stay servable). A failed attempt.
		ctr.Add("peer.stale", 1)
		return done(0, false)
	}
	if kind != fault.None {
		ctr.Add("peer.fault", 1)
	}
	if kind == fault.Crash || kind == fault.Torn {
		// The source dies mid-serve (for a one-way peer read a torn apply
		// and a plain crash are the same event): it drops offline, its
		// announcements are withdrawn, and its next boot heals it. Visit
		// has returned, so the source volume's read lock is not held.
		s.nodeDown(r, time.Time{}, true)
		ctr.Add("peer.crash", 1)
		return done(0, false)
	}
	if got > 0 {
		r.node.Send(int64(got))
		f.bootNode.Recv(int64(got))
		f.moved += int64(got)
	}
	if kind != fault.None {
		// Truncated or corrupted transfers moved bytes but deliver no
		// usable data (per-block checksums reject them at the receiver).
		ctr.Add("peer.wasted_bytes", int64(got))
		return done(0, false)
	}
	return done(n, true)
}

// sourceBytes is what one source served a reader.
type sourceBytes struct {
	node  string
	bytes int64
}

// serve adds n bytes to what node served.
func (f *peerFetcher) serve(node string, n int64) {
	for i := range f.served {
		if f.served[i].node == node {
			f.served[i].bytes += n
			return
		}
	}
	if f.served == nil {
		f.served = f.servedBuf[:0]
	}
	f.served = append(f.served, sourceBytes{node, n})
}

// topSource is the peer that served the most bytes this boot, breaking
// ties by node ID for determinism.
func (f *peerFetcher) topSource() string {
	top, topBytes := "", int64(0)
	for _, sb := range f.served {
		if sb.bytes > topBytes || (sb.bytes == topBytes && top != "" && sb.node < top) {
			top, topBytes = sb.node, sb.bytes
		}
	}
	return top
}
