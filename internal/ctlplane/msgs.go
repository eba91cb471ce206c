package ctlplane

import (
	"time"

	"repro/internal/obs"
)

// Wire message bodies. Each wireproto frame type carries one of these.
// The framing is binary (internal/wireproto); the bodies are JSON, so
// report structs can grow fields without a protocol version bump, except
// TBoot's and the monitoring poll's replies. The boot is the hot path,
// so its request and report travel as fixed binary bodies (bootbody.go);
// the Health, Info, Stats and ComputeRx replies are what a deployment is
// polled with all the time, so they do too (healthbody.go, ctlbody.go).
// A field added to one of those structs needs a codec change and a
// version bump, and its Test*CarriesEveryField fails until it has one.
// The JSON bodies left are the rare, unmeasured ops'. Both
// internal/wireclient and internal/daemon encode against these
// definitions; keeping them in one place is what makes the two ends
// agree.
//
// Frame type ↔ body mapping (binary bodies marked *):
//
//	TInfo        — (no request body)            → Info*
//	TRegister    — RegisterArgs                 → core.RegisterReport
//	TBoot        — core.BootRequest*            → core.BootReport*
//	TSync        — NodeArgs                     → core.SyncReport
//	THealth      — (none)                       → []core.NodeStatus*
//	TTelemetry   — (none)                       → TelemetryDump
//	TPeers       — (none)                       → PeersReply
//	TStats       — (none)                       → core.DeploymentStats*
//	TSetOnline   — OnlineArgs                   → (none)
//	TDropReplica — DropArgs                     → (none)
//	TCrash       — NodeAtArgs                   → (none)
//	TRestart     — NodeAtArgs                   → core.RecoveryReport
//	TRot         — NodeArgs                     → RotReply
//	TSetFaults   — fault.Plan                   → (none)
//	TScrubAll    — AtArgs                       → map[string]zvol.ScrubReport
//	TResilverAll — AtArgs                       → []core.ResilverReport
//	TGC          — AtArgs                       → CountReply
//	TNetReset    — (none)                       → (none)
//	TNetRx       — (none)                       → int64*
//	TWatch       — WatchArgs                    → WatchUpdate stream frames
//	                                              (FlagStream), then an
//	                                              empty final response
//	TTraceTree   — TraceTreeArgs                → TraceTreeReply
//	TWorkload    — workload.Config              → workload.Summary
//
// Type 18 is reserved (a retired trace op; type numbers are wire format).
type (
	// RegisterArgs asks for one registration by corpus image ID.
	RegisterArgs struct {
		Image string
		At    time.Time
	}
	// NodeArgs names a node (sync, rot).
	NodeArgs struct {
		Node string
	}
	// NodeAtArgs names a node and a time (crash, restart).
	NodeAtArgs struct {
		Node string
		At   time.Time
	}
	// OnlineArgs flips a node's availability.
	OnlineArgs struct {
		Node string
		Up   bool
	}
	// DropArgs removes one replica object.
	DropArgs struct {
		Node  string
		Image string
	}
	// AtArgs carries a timestamp (scrub, resilver, GC).
	AtArgs struct {
		At time.Time
	}
	// PeersReply is the rendered peer counter set.
	PeersReply struct {
		Counters string
	}
	// RotReply counts blocks rotted.
	RotReply struct {
		Blocks int
	}
	// CountReply is a bare count (GC).
	CountReply struct {
		N int
	}

	// WatchArgs shapes a streaming telemetry watch: one WatchUpdate per
	// Every interval, Count updates total. Count must be ≥ 1 so a wire
	// stream always terminates; Every defaults to a second when zero.
	WatchArgs struct {
		Every time.Duration
		Count int
	}
	// WatchOp is one op kind's row in a watch update. Count/Errors are
	// cumulative; Delta is the count change since the previous update
	// of this watch; quantiles are cumulative wall milliseconds.
	WatchOp struct {
		Kind   string
		Count  int64
		Delta  int64
		Errors int64
		P50Ms  float64
		P99Ms  float64
	}
	// WatchUpdate is one periodic telemetry delta: per-op rows (sorted
	// by kind), the counters that changed since the previous update
	// (cumulative values), and the gossip directory's round/stale
	// gauges. Seq counts updates within the watch, starting at 1.
	WatchUpdate struct {
		Seq           int
		SpansRecorded uint64
		Ops           []WatchOp
		Counters      map[string]int64
		GossipRound   int64
		GossipStale   int
	}

	// TraceTreeArgs asks for the daemon-side dispatch trees recorded
	// under one client trace ID.
	TraceTreeArgs struct {
		TraceID uint64
	}
	// TraceTreeReply carries the serialized dispatch trees, oldest
	// first. Each tree's RemoteParent names the client span it belongs
	// under.
	TraceTreeReply struct {
		Trees []*obs.TreeDump
	}
)
