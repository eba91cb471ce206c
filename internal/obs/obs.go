// Package obs is Squirrel's observability layer: hierarchical operation
// spans, a bounded ring of completed operation trees, per-op and
// per-node aggregation, and a unified telemetry export surface (JSON +
// Prometheus-style text).
//
// The paper's evaluation (§5) is entirely about where time and bytes go
// — cold-boot CDFs, network transfer breakdowns, gain-factor
// extrapolation — so the reproduction makes operation provenance
// first-class: every long-running operation (Register → per-node
// propagate → zvol.receive; Boot → cacheRead/peerFetch/pfsRead; Scrub,
// Resilver, Sync, GC) records a span tree carrying op kind, node,
// image, byte counts, fault/retry annotations, and simulated network
// time alongside wall time.
//
// The layer is built for always-on operation. A span is one allocation,
// the ring bounds how many completed trees stay reachable, and an
// evicted tree is left to the garbage collector. Aggregation is a few
// map updates under one mutex. Every operation is traced.
//
// Everything is nil-safe in the style of metrics.CounterSet: a nil
// *Telemetry, *Tracer, or *Span no-ops every method, so instrumented
// code paths never branch on "is tracing on".
package obs

import (
	"sync"

	"repro/internal/metrics"
)

// Operation kinds used by the core deployment. Children of an operation
// use the same vocabulary, so per-kind aggregates cover both roots
// (register, boot, scrub, …) and hot sub-operations (peerFetch,
// pfsRead, zvol.receive).
const (
	OpRegister  = "register"
	OpBoot      = "boot"
	OpScrub     = "scrub"
	OpResilver  = "resilver"
	OpSync      = "sync"
	OpGC        = "gc"
	OpRestart   = "restart"
	OpPropagate = "propagate"
	OpReceive   = "zvol.receive"
	OpRepair    = "repair"
	OpPeerFetch = "peerFetch"
	OpCacheRead = "cacheRead"
	OpPFSRead   = "pfsRead"
	OpPartition = "partition"
	OpGossip    = "gossip.round"
)

// Operation kinds used by the control-plane wire path (PR 9): the
// client-side session and per-RPC spans squirrelctl records when driving
// a daemon, and the daemon-side dispatch span each request frame opens.
// Together with the wire trace context they form one tree per control
// operation spanning both processes.
const (
	OpSession  = "ctl.session"  // one per wireclient connection lifetime
	OpDial     = "ctl.dial"     // one per TCP dial attempt (retries = siblings)
	OpRPC      = "rpc.call"     // client side of one request/reply exchange
	OpDispatch = "rpc.dispatch" // daemon side of one request frame
	OpWatch    = "ctl.watch"    // streaming telemetry watch session
)

// Operation kinds used by the workload engine (PR 10): one root span per
// driven scenario with a child per phase, so a trace of a million-boot
// drive is three spans, not a million.
const (
	OpWorkload          = "workload"           // one full scenario drive
	OpWorkloadProvision = "workload.provision" // catalog registration + replica seeding
	OpWorkloadDrive     = "workload.drive"     // the arrival-driven boot loop
)

// DefaultRingSize bounds the completed-operation ring when the
// configured size is non-positive. Retained span trees are live heap
// the garbage collector re-marks every cycle — on an allocation-heavy
// deployment that mark cost, not span recording itself, is what shows
// up as tracing overhead — so the always-on default stays small: deep
// enough to hold the recent operations an operator inspects after an
// incident, shallow enough that a traced boot wave stays within the 5%
// overhead bar. Consumers that replay whole histories from the ring
// (chaos soaks, the figtrace experiment) size it explicitly via New.
const DefaultRingSize = 64

// Telemetry is one deployment's observability state: a tracer feeding a
// registry of per-kind/per-node aggregates, a bounded ring of
// completed root spans, and a counter set. A traced deployment points
// every subsystem's counters at that one set: the peer ledger, the
// fault injector, gossip, the zvol volumes and core's own counts.
// Untraced there is no such set: the exchange counts go to the
// ledger's own set, core's own counts (life.*, repair.*, admit.*,
// partition.*, scrub.*, resilver.*) to the set of the injector the
// operation captured (dropped with no fault plan installed), gossip
// keeps its own, and volumes drop theirs.
type Telemetry struct {
	tracer   *Tracer
	counters *metrics.CounterSet

	mu       sync.Mutex
	workload *WorkloadStats // most recent workload drive, nil until one ran
}

// WorkloadStats is the `workload` snapshot section: the streaming
// aggregate of the most recent workload-engine drive against this
// deployment. It is a fixed-size summary — the driver never retains
// per-boot records — so publishing it costs O(1) regardless of how many
// boots the scenario scheduled.
type WorkloadStats struct {
	Arrivals    string  `json:"arrivals"` // poisson | diurnal | flash
	Nodes       int     `json:"nodes"`
	Boots       int64   `json:"boots"`    // scheduled arrivals
	Executed    int64   `json:"executed"` // real core boots run (memo misses + resamples)
	Shed        int64   `json:"shed"`
	PeerHits    int64   `json:"peer_hits"`
	ShedRate    float64 `json:"shed_rate"`
	PeerHitRate float64 `json:"peer_hit_rate"` // of cold boots
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
}

// SetWorkloadStats publishes the summary of a finished workload drive;
// it appears as the `workload` section of subsequent snapshots. Nil-safe.
func (t *Telemetry) SetWorkloadStats(ws WorkloadStats) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.workload = &ws
	t.mu.Unlock()
}

// New builds a Telemetry whose ring keeps the last ringSize completed
// root operations (DefaultRingSize when ringSize <= 0) and traces every
// operation.
func New(ringSize int) *Telemetry {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	tr := &Tracer{reg: newRegistry(), ring: newRing(ringSize)}
	return &Telemetry{tracer: tr, counters: metrics.NewCounterSet()}
}

// Tracer returns the span tracer. Nil-safe: a nil Telemetry yields a
// nil Tracer, which in turn yields nil no-op spans.
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// Counters is the deployment-wide counter registry. Nil-safe: a nil
// Telemetry yields a nil (drop-everything) CounterSet.
func (t *Telemetry) Counters() *metrics.CounterSet {
	if t == nil {
		return nil
	}
	return t.counters
}
