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
// fine-grained: one lock per image, one per compute node and one short
// deployment-state RWMutex, so a boot storm runs concurrently across
// nodes, Register fans its propagation legs out to replicas in
// parallel, and two operations only serialize when they genuinely touch
// the same image or the same node's replica. The lock-ordering rule is
// on the replica struct.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/gossip"
	"repro/internal/metrics"
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
	// IndexGossip (seed, fanout, lease TTL in rounds, ring owners).
	// Leases expire only as GossipTicks runs rounds. Ignored for
	// IndexCentral.
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

// retentionDays is the paper's n: how many days snapshots are kept for
// offline propagation.
const retentionDays = 7

// DefaultConfig is the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Volume:      zvol.DefaultConfig(),
		ClusterSize: qcow.DefaultClusterSize,
		Propagation: Multicast,
		Repair:      DefaultRepairPolicy(),
		// The paper's boot path is cache-or-PFS; the peer exchange is this
		// repo's extension and stays opt-in (peer.DefaultPolicy enables it).
		Peer: peer.Policy{}.Normalize(),
	}
}

// Squirrel is one deployment over a cluster. Lock order is on replica.
type Squirrel struct {
	cfg Config
	cl  *cluster.Cluster
	pfs *cluster.PFS

	sc *zvol.Volume // scVolume (storage nodes); internally locked

	// replicas holds one replica per compute node, keyed by node ID, and
	// order the same replicas sorted by node ID — the order every
	// deployment-wide pass (scrub, GC, resilver, health, stats) walks.
	// Both are built in New and never mutated, so hot paths resolve a
	// node lock-free; what a replica's fields need is said on the struct.
	replicas map[string]*replica
	order    []*replica

	// ledger is the serve side of the peer block exchange — serve slots,
	// load and circuit breakers — for either index mode; internally
	// locked (a leaf in the lock order — core may call it while holding
	// state, but it never calls back into core).
	ledger *peer.Ledger
	// idx is the content-index chokepoint every announce, retraction,
	// and holder lookup routes through: centralIndex over a
	// peer.Directory, or gossipIndex over the decentralized directory.
	// Leaf-locked like ledger.
	idx contentIndex
	// gossip is the decentralized directory when cfg.Index is
	// IndexGossip, nil otherwise.
	gossip *gossip.Directory
	// tel/tr are the observability layer (cfg.Obs); both nil when
	// disabled, and every use is nil-safe. Set once in New, never
	// mutated, so they are read without locks.
	tel *obs.Telemetry
	tr  *obs.Tracer

	// faults is the live injector (cfg.Faults initially; SetFaults swaps
	// it). An atomic pointer so hot paths capture it once without locks.
	faults atomic.Pointer[fault.Injector]

	// imageLocks serializes operations on one image (Register vs
	// Deregister of the same ID). Images come and go, so their locks are
	// keyed lazily; a node's lock is replica.mu.
	imageLocks *keyLocks

	// commitMu serializes the storage-side half of Register (snapshot
	// sequence, scVolume snapshot chain, wire encode), snapshot GC on the
	// scVolume, and every replica's applyTail. It is never held across a
	// propagation transfer or a replica apply.
	commitMu sync.Mutex
	snapSeq  int

	// state guards the registered-image table and the state-guarded
	// fields of every replica. Critical sections are short reads and
	// writes only — never a transfer, a volume apply, or anything that
	// blocks — so concurrent Boots contend here for nanoseconds, not for
	// the duration of an operation.
	state  sync.RWMutex
	images map[string]*corpus.Image
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
		replicas:   make(map[string]*replica, len(cl.Compute)),
		tel:        cfg.Obs,
		tr:         cfg.Obs.Tracer(),
		imageLocks: newKeyLocks(),
		images:     make(map[string]*corpus.Image),
	}
	s.faults.Store(cfg.Faults)
	peerCtr := metrics.NewCounterSet()
	if s.tel != nil {
		// One registry: the peer ledger, the fault injector, and every
		// volume account into the telemetry counter set instead of
		// bespoke per-subsystem sets.
		peerCtr = s.tel.Counters()
		cfg.Faults.SetCounters(s.tel.Counters())
		s.sc.SetCounters(s.tel.Counters())
	}
	s.ledger = peer.NewLedger(cfg.Peer.Breaker, peerCtr)
	for _, n := range cl.Compute {
		v, err := zvol.New(cfg.Volume)
		if err != nil {
			return nil, err
		}
		if s.tel != nil {
			v.SetCounters(s.tel.Counters())
		}
		r := &replica{node: n, ccv: v, online: true}
		s.replicas[n.ID] = r
		s.order = append(s.order, r)
	}
	sort.Slice(s.order, func(i, j int) bool { return s.order[i].node.ID < s.order[j].node.ID })
	buildIndex(s)
	return s, nil
}

// SCVolume exposes the storage-side cVolume (for stats and tests).
func (s *Squirrel) SCVolume() *zvol.Volume { return s.sc }

// PeerCounters is the peer block exchange's accounting (peer.*,
// breaker.*): the telemetry registry when tracing is on, the ledger's
// own set otherwise. The squirrelctl peers dump prints it.
func (s *Squirrel) PeerCounters() *metrics.CounterSet { return s.ledger.Counters() }

// PeerIndex exists only for the benchmark's traced cold boot
// (bench/trace.go), which replays the exchange's source selection
// through it; it goes when a benchmark change moves that call to
// IndexHolders and the ledger.
func (s *Squirrel) PeerIndex() peerIndex { return peerIndex{s} }

// peerIndex is PeerIndex's one-method view.
type peerIndex struct{ s *Squirrel }

// Acquire reserves a serve slot on obj's least-loaded eligible holder in
// the configured index's operator view; see peer.Ledger.Acquire.
func (p peerIndex) Acquire(obj string, maxSlots int, exclude func(node string) bool) (string, func(int64), bool, bool) {
	return p.s.ledger.Acquire(p.s.idx.Holders(obj, ""), maxSlots, exclude)
}

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

// counters is where core's own counters (life.*, repair.*, partition.*,
// admit.* …) land: the telemetry registry when tracing is on — installed
// fault plan or not — otherwise inj's set, the injector the caller
// captured (nil, so the counts are dropped, with no plan installed).
func (s *Squirrel) counters(inj *fault.Injector) *metrics.CounterSet {
	if s.tel != nil {
		return s.tel.Counters()
	}
	return inj.Counters()
}

// Telemetry exposes the deployment's observability state (nil when
// tracing is disabled); squirrelctl, experiments, and trace-based tests
// read snapshots and span trees through it.
func (s *Squirrel) Telemetry() *obs.Telemetry { return s.tel }

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
	ids := []string{}
	for _, r := range s.order {
		if r.lagging {
			ids = append(ids, r.node.ID)
		}
	}
	return ids
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
	const window = retentionDays * 24 * time.Hour
	s.commitMu.Lock()
	n := len(s.sc.GarbageCollect(now, window))
	s.commitMu.Unlock()
	for _, r := range s.order {
		r.mu.Lock()
		// The volume's GC runs under the node lock alone: it can wait on
		// the volume, and state must never wait behind it.
		n += len(s.ccVolume(r).GarbageCollect(now, window))
		// Retention changes what each replica can serve going forward;
		// reconcile announcements against the live object sets.
		s.state.Lock()
		s.announceHoldingsLocked(r)
		s.state.Unlock()
		r.mu.Unlock()
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
	r, err := s.replica(nodeID)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ccv := s.ccVolume(r)
	if ccv.HasObject(imageID) {
		if err := ccv.DeleteObject(imageID); err != nil {
			return err
		}
	}
	s.idx.Withdraw(imageID, nodeID)
	return nil
}
