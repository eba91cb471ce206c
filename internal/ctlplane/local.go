package ctlplane

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/version"
	"repro/internal/workload"
	"repro/internal/zvol"
)

// Options shape one deployment: the corpus, the cluster, and the core
// config knobs the control plane exposes. squirrelctl builds a Local
// from its flags for in-process runs; squirreld builds the identical
// Local from the same flags and serves it — which is what makes the
// two modes report-for-report equivalent.
type Options struct {
	// Images is the corpus size (number of VM images).
	Images int
	// Nodes is the compute-node count (storage nodes are fixed at 4).
	Nodes int
	// Peers enables the peer block exchange with default policy and
	// per-peer circuit breakers.
	Peers bool
	// Traced enables span tracing and unified telemetry.
	Traced bool
	// Index selects the content-index implementation behind the peer
	// exchange: "" or "central" for the paper-faithful manager registry,
	// "gossip" for the decentralized TTL-lease directory.
	Index string
	// BootLatency is core.Config.BootLatency (wall-clock device wait per
	// boot; zero disables).
	BootLatency time.Duration
	// ObsRingSize bounds the completed-span ring when tracing is on
	// (obs.DefaultRingSize when <= 0).
	ObsRingSize int
}

// Local is the in-process Session: a deployment owned by the calling
// process, driven by direct function calls.
type Local struct {
	sq   *core.Squirrel
	cl   *cluster.Cluster
	repo *corpus.Repository
	byID map[string]*corpus.Image
}

var _ Session = (*Local)(nil)

// NewLocal builds a deployment from opts: a seeded corpus scaled to
// opts.Images, a GigE cluster with 4 storage and opts.Nodes compute
// nodes, a 2×2-striped PFS, and a core.Squirrel configured per the
// flags. Everything is deterministic in opts.
func NewLocal(opts Options) (*Local, error) {
	if opts.Images < 1 || opts.Nodes < 1 {
		return nil, fmt.Errorf("ctlplane: need at least one image and one node")
	}
	spec := corpus.DefaultSpec().Scale(float64(opts.Images)/607, 0.25)
	repo, err := corpus.New(spec)
	if err != nil {
		return nil, err
	}
	if len(repo.Images) > opts.Images {
		repo.Images = repo.Images[:opts.Images]
	}
	cl, err := cluster.New(cluster.GigE, 4, opts.Nodes)
	if err != nil {
		return nil, err
	}
	pfs, err := cluster.NewPFS(cl, 2, 2, 0)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	switch opts.Index {
	case "", core.IndexCentral.String():
		// The default: central registry.
	case core.IndexGossip.String():
		cfg.Index = core.IndexGossip
		// Zero-valued gossip.Config: the directory applies its own
		// defaults (fanout 2, TTL 15 rounds, 2 owners).
	default:
		return nil, fmt.Errorf("ctlplane: unknown index mode %q (want central or gossip)", opts.Index)
	}
	if opts.Peers {
		cfg.Peer = peer.DefaultPolicy()
		cfg.Peer.Breaker = peer.DefaultBreakerPolicy()
	}
	if opts.Traced {
		cfg.Obs = obs.New(opts.ObsRingSize)
	}
	cfg.BootLatency = opts.BootLatency
	sq, err := core.New(cfg, cl, pfs)
	if err != nil {
		return nil, err
	}
	l := &Local{sq: sq, cl: cl, repo: repo, byID: make(map[string]*corpus.Image, len(repo.Images))}
	for _, im := range repo.Images {
		l.byID[im.ID] = im
	}
	return l, nil
}

// Squirrel exposes the deployment for tests and the daemon's logs.
func (l *Local) Squirrel() *core.Squirrel { return l.sq }

// Info implements Session.
func (l *Local) Info() (Info, error) {
	info := Info{
		Version:      version.String(),
		Images:       make([]string, 0, len(l.repo.Images)),
		ComputeNodes: make([]string, 0, len(l.cl.Compute)),
		CacheBytes:   l.repo.CacheBytes(),
	}
	for _, im := range l.repo.Images {
		info.Images = append(info.Images, im.ID)
	}
	for _, n := range l.cl.Compute {
		info.ComputeNodes = append(info.ComputeNodes, n.ID)
	}
	return info, nil
}

// Register implements Session, resolving the image ID against the
// deployment's own corpus — in daemon mode the image content never
// crosses the wire, mirroring the paper's deployment where VMIs are
// uploaded to the PFS out of band and registration is a control call.
func (l *Local) Register(ctx context.Context, imageID string, at time.Time) (core.RegisterReport, error) {
	im, ok := l.byID[imageID]
	if !ok {
		return core.RegisterReport{}, fmt.Errorf("%w: %s", core.ErrUnknownImage, imageID)
	}
	return l.sq.Register(ctx, core.RegisterRequest{Image: im, At: at})
}

// Boot implements Session.
func (l *Local) Boot(ctx context.Context, req core.BootRequest) (core.BootReport, error) {
	return l.sq.Boot(ctx, req)
}

// SyncNode implements Session.
func (l *Local) SyncNode(ctx context.Context, nodeID string) (core.SyncReport, error) {
	return l.sq.SyncNode(ctx, nodeID)
}

// SetOnline implements Session.
func (l *Local) SetOnline(nodeID string, up bool) error { return l.sq.SetOnline(nodeID, up) }

// DropReplica implements Session.
func (l *Local) DropReplica(nodeID, imageID string) error { return l.sq.DropReplica(nodeID, imageID) }

// CrashNode implements Session.
func (l *Local) CrashNode(nodeID string, at time.Time) error { return l.sq.CrashNode(nodeID, at) }

// RestartNode implements Session.
func (l *Local) RestartNode(nodeID string, at time.Time) (core.RecoveryReport, error) {
	return l.sq.RestartNode(nodeID, at)
}

// InjectRot implements Session.
func (l *Local) InjectRot(nodeID string) (int, error) {
	refs, err := l.sq.InjectRot(nodeID)
	return len(refs), err
}

// SetFaults implements Session.
func (l *Local) SetFaults(plan fault.Plan) error {
	inj, err := fault.New(plan)
	if err != nil {
		return err
	}
	l.sq.SetFaults(inj)
	return nil
}

// ScrubAll implements Session.
func (l *Local) ScrubAll(ctx context.Context, at time.Time) (map[string]zvol.ScrubReport, error) {
	return l.sq.ScrubAll(ctx, at)
}

// ResilverAll implements Session.
func (l *Local) ResilverAll(ctx context.Context, at time.Time) ([]core.ResilverReport, error) {
	return l.sq.ResilverAll(ctx, at)
}

// GarbageCollect implements Session.
func (l *Local) GarbageCollect(at time.Time) (int, error) {
	return l.sq.GarbageCollect(at), nil
}

// Stats implements Session.
func (l *Local) Stats() (core.DeploymentStats, error) { return l.sq.Stats(), nil }

// Health implements Session.
func (l *Local) Health() ([]core.NodeStatus, error) { return l.sq.Health(), nil }

// PeerCounters implements Session.
func (l *Local) PeerCounters() (string, error) {
	return l.sq.PeerCounters().String(), nil
}

// Telemetry implements Session.
func (l *Local) Telemetry() (TelemetryDump, error) {
	tel := l.sq.Telemetry()
	if tel == nil {
		return TelemetryDump{}, fmt.Errorf("ctlplane: telemetry disabled on this deployment (enable tracing)")
	}
	snap := tel.Snapshot()
	return TelemetryDump{JSON: snap.JSON(), Prometheus: snap.Prometheus()}, nil
}

// TraceSlowest implements Session.
func (l *Local) TraceSlowest(kind string) (string, error) {
	tel := l.sq.Telemetry()
	if tel == nil {
		return "", fmt.Errorf("ctlplane: telemetry disabled on this deployment (enable tracing)")
	}
	// Under a daemon, operations live as children of rpc.dispatch roots,
	// so the search walks whole trees.
	_, op := obs.Slowest(tel.Trees(), kind)
	if op == nil {
		return "", fmt.Errorf("no completed %q operation in the trace ring (kinds: register, boot, scrub, resilver, sync, gc, restart)", kind)
	}
	return obs.RenderDump(op), nil
}

// Workload implements Session: it runs the workload driver in-process
// over this deployment's full catalog and node set (whatever cfg names),
// publishing the result into the deployment's telemetry (when tracing is
// on) and stamping the summary with the serving index implementation.
func (l *Local) Workload(ctx context.Context, cfg workload.Config) (workload.Summary, error) {
	info, err := l.Info()
	if err != nil {
		return workload.Summary{}, err
	}
	cfg.Images, cfg.Nodes = info.Images, info.ComputeNodes
	sum, err := workload.Run(ctx, l, cfg, l.sq.Telemetry())
	if err != nil {
		return workload.Summary{}, err
	}
	sum.Index = l.sq.Stats().IndexSource
	return sum, nil
}

// ResetNetCounters implements Session.
func (l *Local) ResetNetCounters() error {
	l.cl.ResetCounters()
	return nil
}

// ComputeRx implements Session.
func (l *Local) ComputeRx() (int64, error) { return l.cl.ComputeRxTotal(), nil }

// Close implements Session; in-process deployments have nothing to
// release.
func (l *Local) Close() error { return nil }
