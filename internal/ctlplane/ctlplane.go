// Package ctlplane defines Squirrel's control-plane operation surface:
// the set of deployment operations squirrelctl drives, abstracted so
// the same script runs either against an in-process deployment (Local)
// or against a live squirreld over TCP (internal/wireclient.Client).
//
// The package also owns the wire message schemas (msgs.go), each frame
// type's body codecs (ops.go) and the mapping between the core
// sentinel-error family and wireproto's numeric codes (errors.go), so
// both endpoints of the protocol agree on what travels inside the frames
// that internal/wireproto moves.
package ctlplane

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
	"repro/internal/zvol"
)

// Info describes the deployment a session is attached to: what a
// client must learn before it can script anything, since in daemon mode
// the corpus and cluster live on the server.
type Info struct {
	// Version is the serving side's build/protocol version string.
	Version string
	// Images lists registered-or-registerable image IDs in corpus order.
	Images []string
	// ComputeNodes lists compute node IDs in cluster order.
	ComputeNodes []string
	// CacheBytes is the corpus-wide sum of boot working-set sizes.
	CacheBytes int64
}

// TelemetryDump is one unified telemetry snapshot in both export
// encodings.
type TelemetryDump struct {
	JSON       string
	Prometheus string
}

// Session is one control-plane conversation with a Squirrel
// deployment. Local implements it by direct calls; wireclient.Client
// implements it by typed frames to a squirreld. Reports round-trip the
// wire byte-identically: for the same seeded deployment and script,
// both implementations return equal values, and failed operations
// return errors whose errors.Is identity (core.ErrUnknownImage &c) is
// preserved.
//
// Methods without a context are quick state reads/flips; methods that
// move data take one and honor cancellation like the core API does.
type Session interface {
	// Info describes the deployment (image IDs, node IDs, versions).
	Info() (Info, error)

	// Register registers the corpus image with the given ID.
	Register(ctx context.Context, imageID string, at time.Time) (core.RegisterReport, error)
	// Boot starts one VM.
	Boot(ctx context.Context, req core.BootRequest) (core.BootReport, error)
	// SyncNode runs offline-propagation catch-up on one node.
	SyncNode(ctx context.Context, nodeID string) (core.SyncReport, error)

	// SetOnline flips a node's administrative availability.
	SetOnline(nodeID string, up bool) error
	// DropReplica removes one image's cache object from one node.
	DropReplica(nodeID, imageID string) error

	// CrashNode fails a node at the given time.
	CrashNode(nodeID string, at time.Time) error
	// RestartNode brings a crashed node back, running the restart audit.
	RestartNode(nodeID string, at time.Time) (core.RecoveryReport, error)
	// InjectRot plants at-rest damage on a node; returns blocks rotted.
	InjectRot(nodeID string) (int, error)
	// SetFaults installs a seeded fault plan on the deployment.
	SetFaults(plan fault.Plan) error
	// ScrubAll verifies every replica, quarantining damage.
	ScrubAll(ctx context.Context, at time.Time) (map[string]zvol.ScrubReport, error)
	// ResilverAll repairs quarantined damage on every node.
	ResilverAll(ctx context.Context, at time.Time) ([]core.ResilverReport, error)

	// GarbageCollect destroys snapshots past retention; returns count.
	GarbageCollect(at time.Time) (int, error)
	// Stats reports deployment-wide statistics.
	Stats() (core.DeploymentStats, error)
	// Health reports per-node lifecycle state.
	Health() ([]core.NodeStatus, error)
	// PeerCounters renders the peer exchange's counter set.
	PeerCounters() (string, error)
	// Telemetry exports the unified telemetry snapshot.
	Telemetry() (TelemetryDump, error)
	// TraceSlowest renders the span tree of the slowest op of a kind.
	TraceSlowest(kind string) (string, error)
	// Watch streams args.Count periodic telemetry deltas, one per
	// args.Every interval, calling fn for each. A non-nil error from fn
	// ends the watch early and is returned; ctx cancellation ends it
	// with ctx's error. Over the wire the updates ride FlagStream
	// frames on the existing connection.
	Watch(ctx context.Context, args WatchArgs, fn func(WatchUpdate) error) error

	// Workload drives one workload-engine scenario (arrival process,
	// popularity skew, service model per cfg) against this deployment and
	// returns the streaming summary. cfg's Images and Nodes are ignored:
	// the scenario runs over the deployment's own catalog, where the
	// deployment lives, so over the wire only cfg and the fixed-size
	// summary travel, never the million boots between them.
	Workload(ctx context.Context, cfg workload.Config) (workload.Summary, error)

	// ResetNetCounters zeroes every node's NIC counters.
	ResetNetCounters() error
	// ComputeRx sums received bytes across compute nodes.
	ComputeRx() (int64, error)

	// Close releases the session (closes the daemon connection; a no-op
	// for in-process deployments).
	Close() error
}
