// Package core implements Squirrel itself (§3 of the paper): a fully
// replicated VMI-cache storage system that scatter-hoards the boot
// working sets of all registered VM images on all compute nodes of an
// IaaS data center.
//
// Squirrel maintains one scVolume on the storage side and one ccVolume
// per compute node (all cVolumes are deduplicated + compressed zvol
// volumes). The main operations are:
//
//	Register    first-boot the new VMI on a storage node to capture its
//	            boot working set, store the cache in the scVolume, take a
//	            snapshot, and multicast the incremental snapshot diff to
//	            every online compute node (§3.2, Fig 6). Replica-side
//	            transfer failures never fail the registration: failed
//	            replicas are retried over unicast with bounded exponential
//	            backoff (NACK-style reliable multicast), and past the
//	            retry budget the node is marked lagging for offline
//	            propagation to heal.
//	Boot        chain CoW → ccVolume cache → base VMI for a VM start on a
//	            compute node (§3.3, Fig 7); with a warm replica the boot
//	            performs zero network I/O. Landing on a lagging node first
//	            heals it through SyncNode.
//	Deregister  drop the VMI and its cache from the scVolume; the removal
//	            reaches ccVolumes with the next snapshot (§3.4).
//	GarbageCollect  daily cron job destroying snapshots outside the
//	            retention window n, always keeping the latest (§3.4).
//	SyncNode    offline propagation for nodes that missed registrations:
//	            incremental catch-up when their latest snapshot is still
//	            retained, full re-replication otherwise (§3.5).
//
// All operations are safe for concurrent use, and the locking is
// fine-grained: per-image and per-node lock shards plus one short
// deployment-state RWMutex replace the old global mutex, so a boot
// storm runs concurrently across nodes, Register fans its propagation
// legs out to replicas in parallel, and two operations only serialize
// when they genuinely touch the same image or the same node's replica.
// See keyLocks in locks.go for the lock-ordering rule.
package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/conc"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/qcow"
	"repro/internal/zvol"
)

// Config parameterizes a Squirrel deployment.
type Config struct {
	// Volume is the cVolume policy (block size, codec, dedup); the paper
	// settles on 64 KB + gzip6 + dedup.
	Volume zvol.Config
	// RetentionDays is the paper's n: how long snapshots are kept for
	// offline propagation.
	RetentionDays int
	// ClusterSize is the QCOW2 cluster granularity of CoW/cache images.
	ClusterSize int64
	// Propagation selects the one-to-many diff transfer scheme.
	Propagation Propagation
	// Faults optionally injects transfer faults into propagation and
	// repair (chaos testing, §3.5's motivation). nil is a perfect network.
	Faults *fault.Injector
	// Repair bounds the NACK-style unicast retry loop for replicas that
	// missed or rejected a registration stream.
	Repair RepairPolicy
	// Workers bounds the goroutines Register uses to apply one
	// registration's propagation legs to replicas in parallel. 0 (the
	// default) means GOMAXPROCS; 1 applies legs serially. Parallel legs
	// and serial legs produce byte-identical reports — every
	// order-dependent fault draw happens outside the parallel phase.
	Workers int
	// BootLatency is a real (wall-clock) per-boot device wait applied
	// during trace replay, modelling the hypervisor/disk latency that
	// makes real boot storms I/O-bound. Zero (the default) disables it;
	// it changes no report fields, only elapsed time. The BootStorm
	// benchmark sets it so wall-clock scaling reflects overlapping waits
	// — the thing the old global manager mutex made impossible.
	BootLatency time.Duration
	// Peer configures the peer block exchange: cold-boot misses consult
	// the content index and fetch from a neighboring replica before
	// falling back to the PFS. The index is always maintained;
	// Peer.Enabled gates only the fetch path. Peer.Hedge and Peer.Breaker
	// add the resilience layer's hedged fetches and per-peer circuit
	// breakers on top.
	Peer peer.Policy
	// Admission bounds per-node boot concurrency (deadline-aware
	// admission control). The zero value disables it.
	Admission AdmissionPolicy
	// Index selects the content-index implementation behind the peer
	// exchange: IndexCentral (the default, paper-faithful single
	// registry) or IndexGossip (the decentralized TTL-lease directory in
	// internal/gossip). Both feed the same peer lookup interface, so
	// serve slots, hedges, and circuit breakers behave identically.
	Index IndexMode
	// Gossip parameterizes the decentralized index when Index is
	// IndexGossip (seed, fanout, lease TTL, ring owners, clock). Ignored
	// for IndexCentral.
	Gossip gossip.Config
	// Obs enables operation tracing and unified telemetry: every
	// long-running operation records a span tree, per-op-kind and
	// per-node aggregates accumulate, and the peer index, fault injector,
	// and zvol volumes account into one shared counter registry. nil
	// (the default) disables all of it with zero behavioral difference.
	Obs *obs.Telemetry
}

// RepairPolicy bounds per-replica registration repair.
type RepairPolicy struct {
	// MaxAttempts is the unicast retry budget per replica per
	// registration; once spent the node is marked lagging.
	MaxAttempts int
	// Backoff is the base of the exponential backoff between attempts.
	// Backoff time is simulated (accounted in reports, never slept) so
	// chaos runs stay deterministic and fast.
	Backoff time.Duration
}

// DefaultRepairPolicy mirrors reliable-multicast practice: a few NACK
// retries starting at 50 ms.
func DefaultRepairPolicy() RepairPolicy {
	return RepairPolicy{MaxAttempts: 3, Backoff: 50 * time.Millisecond}
}

// Propagation is the transfer scheme for registration diffs.
type Propagation int

// Propagation schemes (§3.2 uses multicast; the others are the ablation).
const (
	Multicast Propagation = iota
	UnicastFanout
	Pipeline
)

// DefaultConfig is the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Volume:        zvol.DefaultConfig(),
		RetentionDays: 7,
		ClusterSize:   qcow.DefaultClusterSize,
		Propagation:   Multicast,
		Repair:        DefaultRepairPolicy(),
		// The paper's boot path is cache-or-PFS; the peer exchange is this
		// repo's extension and stays opt-in (peer.DefaultPolicy enables it).
		Peer: peer.Policy{}.Normalize(),
	}
}

// Squirrel is one deployment over a cluster.
type Squirrel struct {
	cfg Config
	cl  *cluster.Cluster
	pfs *cluster.PFS

	sc *zvol.Volume // scVolume (storage nodes); internally locked

	// nodes maps compute node ID → cluster node; built once in New and
	// immutable, so hot paths resolve nodes lock-free.
	nodes map[string]*cluster.Node

	// peers is the serve-slot/load/breaker half of the peer block
	// exchange and (in IndexCentral mode) its content index; internally
	// locked (a leaf in the lock order — core may call it while holding
	// state, but index callbacks never re-enter core).
	peers *peer.Index
	// idx is the content-index chokepoint every announce, retraction,
	// and holder lookup routes through: centralIndex over peers, or
	// gossipIndex over the decentralized directory. Leaf-locked like
	// peers.
	idx contentIndex
	// gossip is the decentralized directory when cfg.Index is
	// IndexGossip, nil otherwise.
	gossip *gossip.Directory
	// gates holds one admission gate per compute node; built once in New
	// and immutable, each gate internally locked (a leaf like the index).
	gates map[string]*bootGate
	// tel/tr are the observability layer (cfg.Obs); both nil when
	// disabled, and every use is nil-safe. Set once in New, never
	// mutated, so they are read without locks.
	tel *obs.Telemetry
	tr  *obs.Tracer

	// faults is the live injector (cfg.Faults initially; SetFaults swaps
	// it). An atomic pointer so hot paths capture it once without locks.
	faults atomic.Pointer[fault.Injector]

	// Lock shards. imageLocks serializes operations on one image
	// (Register vs Deregister of the same ID); nodeLocks serializes
	// compound operations on one node's replica (receive vs sync vs
	// scrub vs resilver vs restart). Ordering rule in locks.go.
	imageLocks *keyLocks
	nodeLocks  *keyLocks

	// commitMu serializes the storage-side half of Register (snapshot
	// sequence, scVolume snapshot chain, wire encode) and snapshot GC,
	// plus the per-node apply-order tickets below. It is never held
	// across a propagation transfer or a replica apply.
	commitMu sync.Mutex
	snapSeq  int
	// applyTail is the per-node FIFO ticket chain: each registration, in
	// commit order, enqueues one ticket per destination node and waits on
	// its predecessor before applying, so concurrent registrations deliver
	// incremental snapshots to any single replica in snapshot order.
	applyTail map[string]chan struct{}

	// state guards the mutable deployment maps below. Critical sections
	// are short map reads/writes only — never a transfer, a volume apply,
	// or anything that blocks — so concurrent Boots contend here for
	// nanoseconds, not for the duration of an operation.
	state   sync.RWMutex
	cc      map[string]*zvol.Volume // ccVolume per compute node ID
	online  map[string]bool
	lagging map[string]bool // exhausted repair budget; heal via SyncNode
	images  map[string]*corpus.Image

	// Node lifecycle state (crash/restart, scrub, resilver).
	downSince map[string]time.Time       // when an offline node went down
	damaged   map[string][]zvol.BlockRef // known-damaged blocks per node
	lastScrub map[string]time.Time       // most recent scrub per node
}

// New creates a Squirrel deployment over cl. The PFS must be configured
// over cl's storage nodes; base VMIs are published there.
func New(cfg Config, cl *cluster.Cluster, pfs *cluster.PFS) (*Squirrel, error) {
	sc, err := zvol.New(cfg.Volume)
	if err != nil {
		return nil, err
	}
	cfg.Peer = cfg.Peer.Normalize()
	s := &Squirrel{
		cfg:        cfg,
		cl:         cl,
		pfs:        pfs,
		sc:         sc,
		nodes:      make(map[string]*cluster.Node, len(cl.Compute)),
		peers:      peer.NewIndex(),
		gates:      make(map[string]*bootGate, len(cl.Compute)),
		tel:        cfg.Obs,
		tr:         cfg.Obs.Tracer(),
		imageLocks: newKeyLocks(),
		nodeLocks:  newKeyLocks(),
		applyTail:  make(map[string]chan struct{}),
		cc:         make(map[string]*zvol.Volume),
		online:     make(map[string]bool),
		lagging:    make(map[string]bool),
		images:     make(map[string]*corpus.Image),
		downSince:  make(map[string]time.Time),
		damaged:    make(map[string][]zvol.BlockRef),
		lastScrub:  make(map[string]time.Time),
	}
	s.faults.Store(cfg.Faults)
	s.peers.SetBreakerPolicy(cfg.Peer.Breaker)
	buildIndex(s)
	if s.tel != nil {
		// One registry: the peer index, the fault injector, and every
		// volume account into the telemetry counter set instead of
		// bespoke per-subsystem sets.
		s.peers.SetCounters(s.tel.Counters())
		cfg.Faults.SetCounters(s.tel.Counters())
		s.sc.SetCounters(s.tel.Counters())
	}
	for _, n := range cl.Compute {
		v, err := zvol.New(cfg.Volume)
		if err != nil {
			return nil, err
		}
		if s.tel != nil {
			v.SetCounters(s.tel.Counters())
		}
		s.nodes[n.ID] = n
		s.cc[n.ID] = v
		s.online[n.ID] = true
		s.gates[n.ID] = &bootGate{}
	}
	return s, nil
}

// SCVolume exposes the storage-side cVolume (for stats and tests).
func (s *Squirrel) SCVolume() *zvol.Volume { return s.sc }

// PeerIndex exposes the peer block exchange's content index (stats,
// experiments, and the squirrelctl peers dump read it).
func (s *Squirrel) PeerIndex() *peer.Index { return s.peers }

// SetFaults swaps the deployment's fault injector. Chaos scenarios use
// this to bring a deployment up on a clean fabric and then turn it
// hostile for the phase under test. Operations capture the injector
// once at their start, so a swap never lands mid-operation.
func (s *Squirrel) SetFaults(inj *fault.Injector) {
	if s.tel != nil {
		inj.SetCounters(s.tel.Counters())
	}
	if s.gossip != nil {
		s.gossip.SetInjector(inj)
	}
	s.faults.Store(inj)
}

// injector is the live fault injector (nil = perfect network; every
// injector method is nil-safe).
func (s *Squirrel) injector() *fault.Injector { return s.faults.Load() }

// Telemetry exposes the deployment's observability state (nil when
// tracing is disabled); squirrelctl, experiments, and trace-based tests
// read snapshots and span trees through it.
func (s *Squirrel) Telemetry() *obs.Telemetry { return s.tel }

// announceHoldingsLocked reconciles the peer index with what nodeID's
// ccVolume actually holds, restricted to registered images (a replica
// may still physically hold a deregistered object until the next
// snapshot removes it, but such objects are no longer servable).
// Callers hold s.state (read or write).
//
// A node with known-damaged blocks never announces: whatever it holds
// may be rotten, so it stays withdrawn from the index until a resilver
// (or full re-replication) proves it clean again. This is the index
// half of the "never serve a corrupt byte" invariant; the other half is
// the read-time checksum on every block.
//
// A node stranded behind an open network cut never announces either:
// holders nobody can reach are withdrawn for the duration of the
// partition (Shoal-style dynamic publishing), and the heal's
// anti-entropy pass re-announces them from their authoritative object
// sets. Routing every (re)announcement through this chokepoint is what
// keeps GC, sync, and registration merges from resurrecting cut nodes.
func (s *Squirrel) announceHoldingsLocked(nodeID string) {
	if ccv := s.announcerLocked(nodeID); ccv != nil {
		s.idx.SetHoldings(nodeID, s.heldLocked(ccv))
	}
}

// announceImageLocked publishes the one thing a registration changed on
// a synced replica — nodeID now holds imageID — through the same guard
// as a full reconciliation. Everything else the node holds it announced
// when it got it, and whatever withdrew it since (deregistration, a
// dropped replica, damage, a cut, a crash) either removed the object or
// re-announces in full when it heals, so the one pair leaves the index
// where SetHoldings would. Callers hold s.state.
func (s *Squirrel) announceImageLocked(nodeID, imageID string) {
	if ccv := s.announcerLocked(nodeID); ccv != nil && ccv.HasObject(imageID) {
		s.idx.Announce(imageID, nodeID, func() []string { return s.heldLocked(ccv) })
	}
}

// announcerLocked is the announce guard: nodeID's ccVolume if the node
// may advertise, nil — after retracting whatever it had advertised — if
// it is damaged or unreachable. Callers hold s.state.
func (s *Squirrel) announcerLocked(nodeID string) *zvol.Volume {
	ccv := s.cc[nodeID]
	if ccv == nil {
		return nil
	}
	if len(s.damaged[nodeID]) > 0 || s.cl.Unreachable(nodeID) {
		s.idx.Retract(nodeID)
		return nil
	}
	return ccv
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

// CCVolume returns a compute node's cVolume.
func (s *Squirrel) CCVolume(nodeID string) (*zvol.Volume, error) {
	s.state.RLock()
	defer s.state.RUnlock()
	v, ok := s.cc[nodeID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, nodeID)
	}
	return v, nil
}

// ccVolume is CCVolume without the error wrapping, for internal paths
// that already validated the node.
func (s *Squirrel) ccVolume(nodeID string) *zvol.Volume {
	s.state.RLock()
	v := s.cc[nodeID]
	s.state.RUnlock()
	return v
}

// SetOnline marks a compute node up or down. Offline nodes miss
// registration diffs and must SyncNode on their next boot (§3.5).
// Bringing a crashed node back up does not clear its lagging mark; the
// first boot (or an explicit SyncNode) heals it.
func (s *Squirrel) SetOnline(nodeID string, up bool) error {
	if _, ok := s.nodes[nodeID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeID)
	}
	defer s.nodeLocks.lock(nodeID).Unlock()
	s.state.Lock()
	defer s.state.Unlock()
	s.online[nodeID] = up
	// Offline nodes cannot serve peer fetches, so their announcements are
	// withdrawn; on the way back up the node re-announces what it still
	// physically holds (possibly a stale-but-valid subset).
	if up {
		// A torn apply must be rolled back before the replica serves
		// anything: with the journal open, the object table shows the
		// half-applied state. Rolling back means the node missed that
		// registration, so it comes up lagging.
		if v := s.cc[nodeID]; v.NeedsRecovery() {
			v.Recover()
			s.lagging[nodeID] = true
			s.injector().Counters().Add("recover.rollback", 1)
		}
		delete(s.downSince, nodeID)
		s.idx.NodeUp(nodeID)
		s.announceHoldingsLocked(nodeID)
	} else {
		s.idx.NodeDown(nodeID)
	}
	return nil
}

// Registered lists registered image IDs, sorted.
func (s *Squirrel) Registered() []string {
	s.state.RLock()
	defer s.state.RUnlock()
	ids := make([]string, 0, len(s.images))
	for id := range s.images {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Lagging lists nodes that exhausted their repair budget (or crashed
// mid-transfer) and await offline propagation, sorted.
func (s *Squirrel) Lagging() []string {
	s.state.RLock()
	defer s.state.RUnlock()
	ids := make([]string, 0, len(s.lagging))
	for id := range s.lagging {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

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
	node *cluster.Node
	// wait and done are the leg's per-node FIFO ticket (see applyTail):
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
// Propagation legs fan out across a bounded worker pool (Config.Workers)
// and contend only on their own node's replica; unicast repair of the
// failed minority runs serially in destination order, which keeps every
// order-dependent fault draw in the same sequence as a serial run.
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
// VMI, first-boot the image into the scVolume, snapshot, send, encode and
// prepare the diff, and queue one leg per destination. It runs under
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
	if err != nil {
		return
	}
	// Encode once: the wire stream is both the multicast payload and the
	// unit fault injection mutates.
	// The buffer is given its exact final size: growing by doubling would
	// allocate about as much again as the cache itself.
	wireSize := stream.WireSize()
	wireBuf := bytes.NewBuffer(make([]byte, 0, wireSize))
	n, err := stream.Encode(wireBuf)
	if err == nil && n != wireSize {
		err = fmt.Errorf("core: register %s: stream encoded to %d bytes, its lengths say %d", im.ID, n, wireSize)
	}
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("core: register %s: %w", im.ID, ctx.Err())
	}
	if err != nil {
		return
	}
	// Prepare the stream once: per-payload hashing and compression are
	// paid here instead of once per replica, and every clean leg's
	// receive collapses to map updates that alias these stored bytes
	// (zvol/prepared.go). Only a delivery the fabric damaged is decoded
	// from its wire bytes and prepared again by its receiver.
	sh = &shipment{op: "register:" + snapName, snap: snapName, at: at,
		wire: wireBuf.Bytes(), prep: s.sc.Prepare(stream), inj: s.injector()}
	rep = RegisterReport{
		ImageID:    im.ID,
		Snapshot:   snapName,
		CacheBytes: obj.Size,
		DiffBytes:  int64(len(sh.wire)),
	}
	// Propagate to every online, in-sync node. Lagging nodes are skipped:
	// they lack the previous snapshot, so the incremental stream cannot
	// apply — SyncNode will catch them up wholesale instead.
	s.state.RLock()
	for _, n := range s.cl.Compute {
		if s.online[n.ID] && !s.lagging[n.ID] {
			legs = append(legs, legResult{node: n})
		}
	}
	s.state.RUnlock()
	// Per-node FIFO tickets, allocated in commit order: a leg waits for
	// the previous registration's leg on the same node before applying,
	// so incremental snapshots land on every replica in snapshot order.
	for i := range legs {
		leg := &legs[i]
		leg.wait, leg.done = s.applyTail[leg.node.ID], make(chan struct{})
		s.applyTail[leg.node.ID] = leg.done
	}
	return sh, legs, rep, nil
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
		dsts[i] = legs[i].node
		// Created serially, so the span tree's child order matches
		// destination order regardless of worker timing.
		legs[i].sp = sp.Child(obs.OpPropagate, dsts[i].ID, im.ID)
	}
	// The one-to-many transfer draws every leg's attempt-0 fault verdict
	// serially in destination order (the only order-sensitive injector
	// state is the shared crash budget), so the parallel apply phase
	// below starts from pre-decided outcomes.
	var deliv []cluster.Delivery
	switch s.cfg.Propagation {
	case UnicastFanout:
		deliv, rep.XferSec = s.cl.UnicastStream(sh.op, src, dsts, sh.wire, inj)
	case Pipeline:
		deliv, rep.XferSec = s.cl.PipelineStream(sh.op, src, dsts, sh.wire, inj)
	default:
		deliv, rep.XferSec = s.cl.MulticastStream(sh.op, src, dsts, sh.wire, inj)
	}

	// ---- Apply phase (parallel): each leg locks only its own node and
	// takes the delivery step on its pre-decided attempt-0 verdict. No
	// fault draws happen here, so scheduling cannot change any outcome.
	conc.ForEach(len(legs), s.cfg.Workers, func(i int) {
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
		nl := s.nodeLocks.lock(leg.node.ID)
		leg.needRepair = !s.deliver(sh, leg, leg.sp, dv.Fault, dv.Wire)
		nl.Unlock()
		if !leg.needRepair {
			if leg.synced {
				leg.sp.AddBytes(int64(len(sh.wire)))
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
		nl := s.nodeLocks.lock(leg.node.ID)
		if s.replicaCaughtUp(leg.node.ID, sh.snap) {
			leg.synced = true
		} else if s.repair(sh, leg); !leg.synced && s.isOnline(leg.node.ID) {
			s.markLagging(leg.node.ID)
			leg.lagging = true
			inj.Counters().Add("repair.lagging", 1)
			leg.sp.Annotate("exhausted", 1)
		}
		nl.Unlock()
		leg.finish()
	}

	// ---- Merge phase: fold per-leg results into the report in
	// destination order (the order the old serial loop produced).
	var synced, cancelled []string
	for i := range legs {
		leg := &legs[i]
		rep.Faults += leg.faults
		rep.Retries += leg.retries
		rep.RepairBytes += leg.repairBytes
		rep.RepairSec += leg.repairSec
		switch {
		case leg.synced:
			rep.Nodes++
			synced = append(synced, leg.node.ID)
		case leg.crashed:
			rep.Crashed = append(rep.Crashed, leg.node.ID)
		case leg.torn:
			rep.Torn = append(rep.Torn, leg.node.ID)
		case leg.lagging:
			rep.Lagging = append(rep.Lagging, leg.node.ID)
		case leg.skipped:
			cancelled = append(cancelled, leg.node.ID)
		}
	}
	s.state.Lock()
	s.images[im.ID] = im
	// Replicas that applied the snapshot announce the image they gained
	// to the peer index — the publish half of the peer block exchange.
	for _, nodeID := range synced {
		s.announceImageLocked(nodeID, im.ID)
	}
	// Skipped legs missed the snapshot exactly like an exhausted repair
	// budget: mark them lagging for SyncNode to heal.
	for _, nodeID := range cancelled {
		if s.online[nodeID] {
			s.lagging[nodeID] = true
			rep.Lagging = append(rep.Lagging, nodeID)
		}
	}
	s.state.Unlock()
	if len(cancelled) > 0 {
		inj.Counters().Add("register.cancelled_legs", int64(len(cancelled)))
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
func (s *Squirrel) replicaCaughtUp(nodeID, snapName string) bool {
	ccv := s.ccVolume(nodeID)
	if _, err := ccv.FindSnapshot(snapName); err == nil {
		return true
	}
	latest := ccv.LatestSnapshot()
	return latest != nil && snapSeqOf(latest.Name) >= snapSeqOf(snapName)
}

// isOnline reads one node's online flag.
func (s *Squirrel) isOnline(nodeID string) bool {
	s.state.RLock()
	up := s.online[nodeID]
	s.state.RUnlock()
	return up
}

// markLagging flags one node for offline propagation.
func (s *Squirrel) markLagging(nodeID string) {
	s.state.Lock()
	s.lagging[nodeID] = true
	s.state.Unlock()
}

// nodeDown is the one "node goes down" transition every crash path
// shares — a whole-node CrashNode, a replica dying mid-transfer or
// mid-apply during Register, a source dying mid-serve on the peer
// ladder: the node drops offline and its index announcements are
// withdrawn. lagging marks it for SyncNode as well (it died holding a
// transfer it never finished); at, when known, stamps the downtime the
// restart audit reports.
func (s *Squirrel) nodeDown(nodeID string, at time.Time, lagging bool) {
	s.state.Lock()
	s.online[nodeID] = false
	if lagging {
		s.lagging[nodeID] = true
	}
	if !at.IsZero() {
		s.downSince[nodeID] = at
	}
	s.state.Unlock()
	s.idx.NodeDown(nodeID)
}

// shipment is what the legs of one registration share: the snapshot
// they deliver, in the two forms it travels in.
type shipment struct {
	op   string    // fault-draw key: "register:<snapshot>"
	snap string    // the snapshot the stream creates
	at   time.Time // registration time; stamps a dying replica's downtime
	// wire is the encoded stream — what the fabric carries and a fault
	// mutates; prep the same stream in stored form — what a replica is
	// handed when its copy of wire arrived intact.
	wire []byte
	prep *zvol.PreparedStream
	inj  *fault.Injector
}

// deliver is the one delivery step of a registration: it is handed the
// verdict drawn for one (replica, attempt) — the fault that struck and
// the bytes that got through — and acts on it, the same way for the
// one-to-many leg (attempt 0, verdict pre-drawn by cluster.*Stream) and
// for every unicast repair (attempts 1..N, verdict drawn by repair). It
// reports whether the leg is settled — leg says how — or the attempt was
// lost or rejected and another is due. sp is the attempt's span: the
// leg's propagate span, then its repair span. Caller holds the node lock.
func (s *Squirrel) deliver(sh *shipment, leg *legResult, sp *obs.Span, kind fault.Kind, got []byte) bool {
	id := leg.node.ID
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
		s.markLagging(id)
		leg.lagging = true
		sh.inj.Counters().Add("repair.partitioned", 1)
		sp.Annotate("partitioned", 1)
		return true
	case kind == fault.Crash:
		// The node died mid-transfer: offline, and lagging so that its
		// first boot after recovery heals it.
		s.nodeDown(id, sh.at, true)
		sh.inj.Counters().Add("repair.crashed", 1)
		leg.crashed = true
		return true
	case kind == fault.Torn:
		// The stream arrives intact and the node dies partway through
		// `zfs recv`. The crash offset is a pure function of (seed, op,
		// node), so a chaos run tears the same replicas at the same step
		// every time.
		s.ccVolume(id).SetReceiveCrashPoint(sh.inj.TornStep(sh.op, id, sh.prep.Stream.ApplySteps()))
	case s.replicaCaughtUp(id, sh.snap):
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
	err := handOver(sp, id, s.ccVolume(id), sh.prep, raw)
	if kind == fault.Torn {
		// The apply died with ErrTorn and its receive journal open; the
		// node goes down with it, and the restart audit (or SyncNode)
		// rolls it back.
		s.nodeDown(id, sh.at, true)
		sh.inj.Counters().Add("repair.torn", 1)
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
	node := leg.node
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
		sh.inj.Counters().Add("repair.retries", 1)
		kind, got := sh.inj.Strike(sh.op, node.ID, attempt, sh.wire)
		// A replica that dies on this attempt is charged no transfer;
		// otherwise the source retransmits in full and the replica takes
		// whatever got through.
		if kind != fault.Crash && kind != fault.Torn {
			src.Send(int64(len(sh.wire)))
			if got != nil {
				n := int64(len(got))
				sec := s.cl.Fabric.TransferSec(n)
				node.Recv(n)
				leg.repairBytes += n
				leg.repairSec += sec
				rsp.AddBytes(n)
				rsp.AddSim(sec)
				sh.inj.Counters().Add("repair.bytes", n)
			}
		}
		if s.deliver(sh, leg, rsp, kind, got) {
			return
		}
	}
	rsp.Annotate("exhausted", 1)
}

// Deregister removes a VMI: the original image and its scVolume cache are
// deleted. ccVolumes learn about the removal with the next snapshot
// (§3.4) — Squirrel deliberately takes no snapshot here.
func (s *Squirrel) Deregister(id string) error {
	defer s.imageLocks.lock(id).Unlock()
	s.state.RLock()
	_, ok := s.images[id]
	s.state.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownImage, id)
	}
	if err := s.sc.DeleteObject(id); err != nil {
		return err
	}
	s.state.Lock()
	delete(s.images, id)
	s.state.Unlock()
	// Replicas may physically hold the object until the next snapshot
	// propagates the delete, but a deregistered image is not servable:
	// withdraw it from the peer index immediately.
	s.idx.WithdrawObject(id)
	return nil
}

// GarbageCollect runs the daily retention job on the scVolume and all
// ccVolumes, keeping snapshots younger than the retention window plus the
// latest snapshot. Returns the number of snapshots destroyed.
func (s *Squirrel) GarbageCollect(now time.Time) int {
	sp := s.tr.StartOp(obs.OpGC, "", "")
	window := time.Duration(s.cfg.RetentionDays) * 24 * time.Hour
	s.commitMu.Lock()
	n := len(s.sc.GarbageCollect(now, window))
	s.commitMu.Unlock()
	ids := make([]string, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		nl := s.nodeLocks.lock(id)
		s.state.Lock()
		v := s.cc[id]
		n += len(v.GarbageCollect(now, window))
		// Retention changes what each replica can serve going forward;
		// reconcile announcements against the live object sets.
		if s.online[id] {
			s.announceHoldingsLocked(id)
		}
		s.state.Unlock()
		nl.Unlock()
	}
	sp.Annotate("destroyed", int64(n))
	sp.Finish()
	return n
}

// DropReplica deletes nodeID's local copy of one cache object and
// withdraws its peer-index announcement. This is the hook experiments,
// tests, and capacity policies use to manufacture cold-boot misses (or
// reclaim replica space) without taking the node offline: the next boot
// of imageID on nodeID must fetch from a peer or the PFS.
func (s *Squirrel) DropReplica(nodeID, imageID string) error {
	if _, ok := s.nodes[nodeID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeID)
	}
	defer s.nodeLocks.lock(nodeID).Unlock()
	ccv := s.ccVolume(nodeID)
	if ccv.HasObject(imageID) {
		if err := ccv.DeleteObject(imageID); err != nil {
			return err
		}
	}
	s.idx.Withdraw(imageID, nodeID)
	return nil
}
