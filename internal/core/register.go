package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/conc"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/zvol"
)

// RegisterRequest names the inputs of one registration.
type RegisterRequest struct {
	// Image is the VMI to register (its content generator doubles as the
	// PFS-published base image).
	Image *corpus.Image
	// At is the registration time; it drives snapshot retention.
	At time.Time
}

// RegisterReport describes one registration.
type RegisterReport struct {
	ImageID    string
	Snapshot   string
	CacheBytes int64   // boot working set captured on the storage node
	DiffBytes  int64   // incremental wire-stream size actually propagated
	Nodes      int     // replicas holding the snapshot when Register returns
	XferSec    float64 // propagation duration on the fabric

	// Fault/repair accounting; all zero on a perfect network.
	Faults      int      // transfer faults injected against this registration
	Retries     int      // unicast repair attempts
	RepairBytes int64    // bytes delivered by unicast repair
	RepairSec   float64  // simulated repair transfer + backoff time
	Lagging     []string // replicas left lagging after the retry budget
	Crashed     []string // replicas that crashed mid-transfer
	Torn        []string // replicas that crashed mid-APPLY (open journal)
}

// legResult accumulates one propagation leg's outcome. Each leg writes
// only its own result; Register merges them into the report in
// destination order afterwards, so the report is byte-identical whether
// the legs ran serially or fanned out across the worker pool.
type legResult struct {
	r *replica
	// wait and done are the leg's per-node FIFO ticket (replica.applyTail):
	// it applies after wait closes and closes done when settled. sp is
	// its propagate span.
	wait, done chan struct{}
	sp         *obs.Span

	synced     bool
	crashed    bool
	torn       bool
	lagging    bool
	skipped    bool // context cancelled before this leg applied
	needRepair bool

	faults      int
	retries     int
	repairBytes int64
	repairSec   float64
}

// finish releases the next registration's leg on this node and closes
// the leg's span.
func (l *legResult) finish() {
	close(l.done)
	l.sp.Finish()
}

// Register runs the paper's registration workflow (Fig 6) for a VMI that
// has been uploaded to the PFS: capture its boot working set by a first
// boot on a storage node, store it in the scVolume, snapshot, and
// propagate the snapshot diff to all online compute nodes.
//
// Registration is reliable and degradable: a replica that misses or
// rejects the one-to-many stream (lossy multicast, corruption, a crash
// mid-transfer) is repaired over unicast with bounded exponential
// backoff; a replica that exhausts the budget is marked lagging and
// healed later by SyncNode. Replica-side faults therefore never surface
// as a Register error — only storage-side failures do, and those roll
// back cleanly so the registration can be retried.
//
// Propagation legs fan out across GOMAXPROCS workers and contend only
// on their own node's replica; unicast repair of the failed minority
// runs serially in destination order, which keeps every order-dependent
// fault draw in the same sequence as a serial run.
//
// Cancellation: a context cancelled before the storage-side commit
// aborts with nothing changed. Cancelled mid-propagation, the commit
// stands — the snapshot exists and some replicas may hold it — so the
// remaining legs are skipped and their nodes marked lagging (SyncNode
// heals them, exactly as if they had missed the stream), the image is
// registered, and the partial report is returned alongside the context
// error.
func (s *Squirrel) Register(ctx context.Context, req RegisterRequest) (RegisterReport, error) {
	im, at := req.Image, req.At
	if im == nil {
		return RegisterReport{}, fmt.Errorf("%w: registration without an image", ErrUnknownImage)
	}
	if err := ctx.Err(); err != nil {
		return RegisterReport{}, fmt.Errorf("core: register %s: %w", im.ID, err)
	}
	defer s.imageLocks.lock(im.ID).Unlock()
	s.state.RLock()
	_, dup := s.images[im.ID]
	s.state.RUnlock()
	if dup {
		return RegisterReport{}, fmt.Errorf("%w: %s", ErrRegistered, im.ID)
	}
	sp := s.tr.Op(obs.SpanFromContext(ctx), obs.OpRegister, "", im.ID)
	rep, err := s.register(ctx, sp, im, at)
	sp.AddBytes(rep.DiffBytes)
	sp.AddSim(rep.XferSec + rep.RepairSec)
	if rep.Faults > 0 {
		sp.Annotate("faults", int64(rep.Faults))
	}
	if rep.Retries > 0 {
		sp.Annotate("retries", int64(rep.Retries))
	}
	if n := len(rep.Lagging); n > 0 {
		sp.Annotate("lagging", int64(n))
	}
	if n := len(rep.Crashed) + len(rep.Torn); n > 0 {
		sp.Annotate("crashed", int64(n))
	}
	sp.Fail(err)
	sp.Finish()
	return rep, err
}

// commit is the storage-side half of a registration: publish the base
// VMI, first-boot the image into the scVolume, snapshot, send and prepare
// the diff, and queue one leg per destination. It runs under
// commitMu, so the snapshot sequence, the scVolume's snapshot chain and
// the per-node apply order advance atomically. An error — or a
// cancellation, which can still land here because nothing has left the
// storage node — rolls the storage side back, so a retry starts from
// clean state instead of duplicate-object errors; past commit the
// registration stands. Caller holds the image lock.
func (s *Squirrel) commit(ctx context.Context, im *corpus.Image, at time.Time) (sh *shipment, legs []legResult, rep RegisterReport, err error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	// A previously failed attempt may have left the cache object behind
	// without registering the image; clear it so the retry does not hit
	// duplicate-object state.
	if s.sc.HasObject(im.ID) {
		if err = s.sc.DeleteObject(im.ID); err != nil {
			return
		}
	}
	// Publish the base VMI on the parallel file system if not present
	// (uploads are the provider's existing mechanism, §3.2).
	if _, missing := s.pfs.Size(im.ID); missing != nil {
		// ReadAtFunc, not a bare Generator: the PFS serves concurrent
		// boots of the same image.
		if err = s.pfs.AddFile(im.ID, im.RawSize(), im.ReadAtFunc()); err != nil {
			return
		}
	}
	// First boot happens on a storage node: the cache is created from
	// local reads, with no compute-node traffic.
	obj, err := s.sc.WriteObject(im.ID, im.CacheReader())
	if err != nil {
		return
	}
	prev := ""
	if snap := s.sc.LatestSnapshot(); snap != nil {
		prev = snap.Name
	}
	s.snapSeq++
	snapName := fmt.Sprintf("cVol@%06d-%s", s.snapSeq, im.ID)
	snapTaken := false
	defer func() { // still under commitMu, before any replica saw the snapshot
		if err == nil {
			return
		}
		if snapTaken {
			s.sc.DeleteSnapshot(snapName)
		}
		s.sc.DeleteObject(im.ID)
		s.snapSeq--
	}()
	if _, err = s.sc.Snapshot(snapName, at); err != nil {
		return
	}
	snapTaken = true
	stream, err := s.sc.Send(prev, snapName)
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("core: register %s: %w", im.ID, ctx.Err())
	}
	if err != nil {
		return
	}
	// The stream ships the scVolume's stored payloads, and Prepare hands
	// them on as they are: every clean leg's receive collapses to map
	// updates that alias these stored bytes (zvol/prepared.go). The wire
	// form is charged by its size and encoded only for a delivery the
	// fabric damaged — once per registration, however many are — which
	// its receiver decodes and prepares for itself.
	inj := s.injector()
	sh = &shipment{op: "register:" + snapName, snap: snapName, at: at,
		wire: cluster.Stream{Size: stream.WireSize(), Bytes: sync.OnceValue(func() []byte {
			return s.encodeWire(stream, inj)
		})},
		prep: s.sc.Prepare(stream), inj: inj}
	rep = RegisterReport{
		ImageID:    im.ID,
		Snapshot:   snapName,
		CacheBytes: obj.Size,
		DiffBytes:  sh.wire.Size,
	}
	// Propagate to every online, in-sync node. Lagging nodes are skipped:
	// they lack the previous snapshot, so the incremental stream cannot
	// apply — SyncNode will catch them up wholesale instead.
	s.state.RLock()
	for _, n := range s.cl.Compute {
		if r := s.replicas[n.ID]; r.online && !r.lagging {
			legs = append(legs, legResult{r: r})
		}
	}
	s.state.RUnlock()
	// Per-node FIFO tickets, allocated in commit order: a leg waits for
	// the previous registration's leg on the same node before applying,
	// so incremental snapshots land on every replica in snapshot order.
	for i := range legs {
		leg := &legs[i]
		leg.wait, leg.done = leg.r.applyTail, make(chan struct{})
		leg.r.applyTail = leg.done
	}
	return sh, legs, rep, nil
}

// encodeWire returns a registration stream's wire bytes, for the
// deliveries a fault damaged. The buffer is given its exact final size:
// growing by doubling would allocate about as much again as the stream.
// Encode fails only if a lent payload no longer inflates, which its
// CRC32C check at Send rules out short of a codec fault; then the
// damaged deliveries get no bytes, decode to nothing and are retried like
// any loss, and register.encode_failed counts it.
func (s *Squirrel) encodeWire(st *zvol.Stream, inj *fault.Injector) []byte {
	buf := bytes.NewBuffer(make([]byte, 0, st.WireSize()))
	if n, err := st.Encode(buf); err != nil || n != st.WireSize() {
		s.counters(inj).Add("register.encode_failed", 1)
		return nil
	}
	return buf.Bytes()
}

// register is the Register body: commit, then the one-to-many transfer,
// the parallel apply phase, the serial repair phase, and the merge.
// Caller holds the image lock.
func (s *Squirrel) register(ctx context.Context, sp *obs.Span, im *corpus.Image, at time.Time) (RegisterReport, error) {
	sh, legs, rep, err := s.commit(ctx, im, at)
	if err != nil {
		return RegisterReport{}, err
	}
	inj := sh.inj
	src := s.cl.Storage[0]
	dsts := make([]*cluster.Node, len(legs))
	for i := range legs {
		dsts[i] = legs[i].r.node
		// Created serially, so the span tree's child order matches
		// destination order regardless of worker timing.
		legs[i].sp = sp.Child(obs.OpPropagate, dsts[i].ID, im.ID)
	}
	// The one-to-many transfer draws every leg's attempt-0 fault verdict
	// serially in destination order (the only order-sensitive injector
	// state is the shared crash budget), so the parallel apply phase
	// below starts from pre-decided outcomes — and damaged bytes, which
	// are what first asks for the wire form.
	var deliv []cluster.Delivery
	switch s.cfg.Propagation {
	case UnicastFanout:
		deliv, rep.XferSec = s.cl.UnicastStream(sh.op, src, dsts, sh.wire, inj)
	case Pipeline:
		deliv, rep.XferSec = s.cl.PipelineStream(sh.op, src, dsts, sh.wire, inj)
	default:
		deliv, rep.XferSec = s.cl.Multicast(sh.op, src, dsts, sh.wire, inj)
	}

	// ---- Apply phase (parallel): each leg locks only its own node and
	// takes the delivery step on its pre-decided attempt-0 verdict. No
	// fault draws happen here, so scheduling cannot change any outcome.
	conc.ForEach(len(legs), 0, func(i int) {
		dv, leg := deliv[i], &legs[i]
		if leg.wait != nil {
			select {
			case <-leg.wait:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			leg.skipped = true
			leg.sp.Annotate("cancelled", 1)
			leg.finish()
			return
		}
		leg.r.mu.Lock()
		leg.needRepair = !s.deliver(sh, leg, leg.sp, dv.Fault, dv.Wire)
		leg.r.mu.Unlock()
		if !leg.needRepair {
			if leg.synced {
				leg.sp.AddBytes(sh.wire.Size)
			}
			leg.finish()
		}
	})

	// ---- Repair phase (serial, destination order): the NACK retry loop
	// draws injector verdicts per attempt, and the shared crash budget
	// makes those draws order-dependent — running them in destination
	// order keeps chaos runs byte-identical to a serial registration.
	for i := range legs {
		leg := &legs[i]
		if !leg.needRepair {
			continue
		}
		leg.r.mu.Lock()
		if s.replicaCaughtUp(leg.r, sh.snap) {
			leg.synced = true
		} else if s.repair(sh, leg); !leg.synced && s.isOnline(leg.r) {
			s.markLagging(leg.r)
			leg.lagging = true
			s.counters(inj).Add("repair.lagging", 1)
			leg.sp.Annotate("exhausted", 1)
		}
		leg.r.mu.Unlock()
		leg.finish()
	}

	// ---- Merge phase: fold per-leg results into the report in
	// destination order (the order the old serial loop produced).
	var synced, cancelled []*replica
	for i := range legs {
		leg := &legs[i]
		rep.Faults += leg.faults
		rep.Retries += leg.retries
		rep.RepairBytes += leg.repairBytes
		rep.RepairSec += leg.repairSec
		switch {
		case leg.synced:
			rep.Nodes++
			synced = append(synced, leg.r)
		case leg.crashed:
			rep.Crashed = append(rep.Crashed, leg.r.node.ID)
		case leg.torn:
			rep.Torn = append(rep.Torn, leg.r.node.ID)
		case leg.lagging:
			rep.Lagging = append(rep.Lagging, leg.r.node.ID)
		case leg.skipped:
			cancelled = append(cancelled, leg.r)
		}
	}
	s.state.Lock()
	s.images[im.ID] = im
	// Replicas that applied the snapshot announce the image they gained
	// to the peer index — the publish half of the peer block exchange.
	for _, r := range synced {
		s.announceImageLocked(r, im.ID)
	}
	// Skipped legs missed the snapshot exactly like an exhausted repair
	// budget: mark them lagging for SyncNode to heal.
	for _, r := range cancelled {
		if r.online {
			r.lagging = true
			rep.Lagging = append(rep.Lagging, r.node.ID)
		}
	}
	s.state.Unlock()
	if len(cancelled) > 0 {
		s.counters(inj).Add("register.cancelled_legs", int64(len(cancelled)))
		return rep, fmt.Errorf("core: register %s cancelled mid-propagation: %w", im.ID, ctx.Err())
	}
	return rep, nil
}

// snapSeqOf extracts the monotone commit sequence from a snapshot name
// ("cVol@%06d-<image>"); 0 when the name has a different shape.
func snapSeqOf(name string) int {
	const pfx = "cVol@"
	if !strings.HasPrefix(name, pfx) || len(name) < len(pfx)+6 {
		return 0
	}
	seq := 0
	for _, c := range name[len(pfx) : len(pfx)+6] {
		if c < '0' || c > '9' {
			return 0
		}
		seq = seq*10 + int(c-'0')
	}
	return seq
}

// replicaCaughtUp reports whether a node's replica already covers
// snapName, so the propagation leg must be skipped: either the replica
// contains that very snapshot, or it sits at a later one — a concurrent
// SyncNode sends one cumulative diff straight to the scVolume's head,
// which subsumes every registration in between. Applying an older
// incremental on top of a newer head would corrupt the replica's
// snapshot order, so such legs count as delivered. Never true in a
// serial run (nothing can overtake the leg), which keeps single-threaded
// chaos runs byte-identical. Caller holds the node lock.
func (s *Squirrel) replicaCaughtUp(r *replica, snapName string) bool {
	ccv := s.ccVolume(r)
	if _, err := ccv.FindSnapshot(snapName); err == nil {
		return true
	}
	latest := ccv.LatestSnapshot()
	return latest != nil && snapSeqOf(latest.Name) >= snapSeqOf(snapName)
}

// shipment is what the legs of one registration share: the snapshot
// they deliver, in the two forms it travels in.
type shipment struct {
	op   string    // fault-draw key: "register:<snapshot>"
	snap string    // the snapshot the stream creates
	at   time.Time // registration time; stamps a dying replica's downtime
	// wire is the stream as the fabric carries it — its size, which every
	// transfer charges, and its encoding, which only a fault that damages
	// a delivery reads (made once, on the first such fault); prep the
	// same stream in stored form — what a replica is handed when its
	// delivery arrived intact.
	wire cluster.Stream
	prep *zvol.PreparedStream
	inj  *fault.Injector
}

// deliver is the one delivery step of a registration: it is handed the
// verdict drawn for one (replica, attempt) — the fault that struck and,
// when it damaged them, the bytes that got through — and acts on it, the
// same way for the one-to-many leg (attempt 0, verdict pre-drawn by the
// cluster's transfer) and
// for every unicast repair (attempts 1..N, verdict drawn by repair). It
// reports whether the leg is settled — leg says how — or the attempt was
// lost or rejected and another is due. sp is the attempt's span: the
// leg's propagate span, then its repair span. Caller holds the node lock.
func (s *Squirrel) deliver(sh *shipment, leg *legResult, sp *obs.Span, kind fault.Kind, got []byte) bool {
	r, id := leg.r, leg.r.node.ID
	if kind != fault.None {
		leg.faults++
		sp.Annotate("fault."+kind.String(), 1)
	}
	var raw *zvol.Stream
	switch {
	case kind == fault.Partition:
		// The replica sits across an open cut: nothing reached it and no
		// retransmission can. No retry ladder — it is lagging, and the
		// post-heal anti-entropy SyncNode pass catches it up.
		s.markLagging(r)
		leg.lagging = true
		s.counters(sh.inj).Add("repair.partitioned", 1)
		sp.Annotate("partitioned", 1)
		return true
	case kind == fault.Crash:
		// The node died mid-transfer: offline, and lagging so that its
		// first boot after recovery heals it.
		s.nodeDown(r, sh.at, true)
		s.counters(sh.inj).Add("repair.crashed", 1)
		leg.crashed = true
		return true
	case kind == fault.Torn:
		// The stream arrives intact and the node dies partway through
		// `zfs recv`. The crash offset is a pure function of (seed, op,
		// node), so a chaos run tears the same replicas at the same step
		// every time.
		s.ccVolume(r).SetReceiveCrashPoint(sh.inj.TornStep(sh.op, id, sh.prep.Stream.ApplySteps()))
	case s.replicaCaughtUp(r, sh.snap):
		// A concurrent SyncNode already delivered this snapshot
		// wholesale; the leg's work is done.
		leg.synced = true
		return true
	case kind != fault.None:
		// Dropped, truncated or corrupted: the replica is handed what
		// still decodes from the bytes that arrived — nothing at all,
		// unless the damage slipped past the wire CRC.
		var err error
		if raw, err = zvol.DecodeStream(bytes.NewReader(got)); err != nil {
			return false
		}
	}
	err := handOver(sp, id, s.ccVolume(r), sh.prep, raw)
	if kind == fault.Torn {
		// The apply died with ErrTorn and its receive journal open; the
		// node goes down with it, and the restart audit (or SyncNode)
		// rolls it back.
		s.nodeDown(r, sh.at, true)
		s.counters(sh.inj).Add("repair.torn", 1)
		leg.torn = true
		return true
	}
	leg.synced = err == nil
	return leg.synced
}

// handOver is the one place a replica is given a stream — by a
// registration's delivery step and by SyncNode alike: the sender-prepared
// stream (hashing and compression done once, stored payloads aliased)
// when it arrived intact, and raw, the stream decoded from damaged wire
// bytes, when it did not — which Receive's own per-block verification
// rejects unless the damage was harmless. The apply is recorded as a
// zvol.receive span under parent (a nil parent records none). Caller
// holds the node lock.
func handOver(parent *obs.Span, nodeID string, ccv *zvol.Volume, prep *zvol.PreparedStream, raw *zvol.Stream) error {
	rsp := parent.Child(obs.OpReceive, nodeID, "")
	defer rsp.Finish()
	st := prep.Stream
	var err error
	if raw == nil {
		err = ccv.ReceivePrepared(prep)
	} else {
		st, err = raw, ccv.Receive(raw)
	}
	if err != nil {
		rsp.Annotate("rejected", 1)
		return err
	}
	rsp.AddBytes(st.SizeBytes())
	return nil
}

// repair retries one replica that missed or rejected the one-to-many
// stream over unicast with bounded exponential backoff — the NACK path of
// reliable multicast. It draws each attempt's verdict, charges the
// retransmission, and hands the verdict to the delivery step until the
// leg is settled or the budget is spent. Backoff is simulated into the
// report, never slept. Caller holds the node lock; accounting goes into
// leg, not the shared report.
func (s *Squirrel) repair(sh *shipment, leg *legResult) {
	node := leg.r.node
	rsp := leg.sp.Child(obs.OpRepair, node.ID, "")
	defer rsp.Finish()
	pol := s.cfg.Repair
	if pol.MaxAttempts <= 0 {
		pol.MaxAttempts = DefaultRepairPolicy().MaxAttempts
	}
	if pol.Backoff <= 0 {
		pol.Backoff = DefaultRepairPolicy().Backoff
	}
	src := s.cl.Storage[0]
	backoff := pol.Backoff
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		// A cut that opened mid-registration makes further NACKs
		// pointless: the verdict is Partition, no draw consumed.
		if !s.cl.Reachable(src.ID, node.ID) {
			s.deliver(sh, leg, rsp, fault.Partition, nil)
			return
		}
		leg.retries++
		leg.repairSec += backoff.Seconds()
		rsp.Annotate("attempts", 1)
		rsp.AddSim(backoff.Seconds())
		backoff *= 2
		s.counters(sh.inj).Add("repair.retries", 1)
		kind, n, got := sh.wire.Deliver(sh.inj, sh.op, node.ID, attempt)
		// A replica that dies on this attempt is charged no transfer;
		// otherwise the source retransmits in full and the replica takes
		// whatever got through, which a drop is nothing of.
		if kind != fault.Crash && kind != fault.Torn {
			src.Send(sh.wire.Size)
			if kind != fault.Drop {
				sec := s.cl.Fabric.TransferSec(n)
				node.Recv(n)
				leg.repairBytes += n
				leg.repairSec += sec
				rsp.AddBytes(n)
				rsp.AddSim(sec)
				s.counters(sh.inj).Add("repair.bytes", n)
			}
		}
		if s.deliver(sh, leg, rsp, kind, got) {
			return
		}
	}
	rsp.Annotate("exhausted", 1)
}
