package ctlplane

import (
	"time"

	"repro/internal/obs"
)

// Wire message bodies: the args and replies of the frame types that
// have no Session type of their own. Which frame type carries which body,
// and whether that body is JSON, binary or empty, is declared once, in
// ops.go; internal/wireclient and internal/daemon both encode through
// those declarations, which is what makes the two ends agree.
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
