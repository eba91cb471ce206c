// Package workload is Squirrel's traffic engine: seeded arrival-process
// generators (Poisson, diurnal, flash-crowd), multi-tenant image
// popularity skew (Zipf over the corpus catalog), and a memory-bounded
// driver that executes boots through a deployment's real hedge / peer /
// replica machinery at ~10k nodes and ~1M boots on one machine.
//
// The driver runs on one clock, a logical one: a single-threaded event
// loop over virtual time. Admission is the drive's own model, not the
// deployment's gate (which a one-at-a-time caller never queues at):
// every arrival queues on its node's fixed set of virtual boot slots;
// waiting, service, and shedding are computed from
// the deterministic BootReports the deployment returns, so the same seed
// produces the same Summary byte for byte. Boots over the wire on a wall
// clock are bench/'s job, not this package's.
//
// Memory is bounded by construction: arrivals are generated on the fly
// (never materialized), results stream into fixed-bucket histograms
// (never retained per boot), and the only per-node state is `Slots`
// float64s of virtual queue depth. Driving 1M boots costs the same heap
// as driving 10k. Repeated identical boots (same node temperature, same
// image) are memoized from the first real execution and re-executed every
// defaultResample hits — valid because BootReports are deterministic for
// a fault-free deployment — which is what makes a million-boot drive
// complete in seconds.
package workload

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// Deployment is the slice of a control-plane session the driver needs.
// The method set matches ctlplane.Session's signatures exactly, so any
// Session (in-process Local or a wireclient over TCP) satisfies it.
type Deployment interface {
	Register(ctx context.Context, imageID string, at time.Time) (core.RegisterReport, error)
	Boot(ctx context.Context, req core.BootRequest) (core.BootReport, error)
	DropReplica(nodeID, imageID string) error
}

// Arrival process names.
const (
	Poisson = "poisson" // constant-rate memoryless arrivals
	Diurnal = "diurnal" // sinusoidal day curve (trough 0.4×, peak 1.6× the mean rate)
	Flash   = "flash"   // background Poisson + "9am new-image storm" burst
)

// Config parameterizes one workload scenario. The zero value is not
// runnable: Images, Nodes, and Boots must be set. Everything else has a
// default applied by normalize. It is also the TWorkload request body:
// a serving ctlplane.Local replaces Images and Nodes with its own catalog.
type Config struct {
	Arrivals string // Poisson, Diurnal, or Flash (default Poisson)
	Seed     int64  // drives every random choice (default 1)
	Boots    int    // total arrivals to schedule

	Images []string // catalog in registration order; the LAST entry is the "new" storm image
	Nodes  []string // compute node IDs

	Tenants  int     // tenants with independent popularity permutations (default 8)
	ZipfS    float64 // Zipf skew exponent, must be > 1 (default 1.2)
	ColdFrac float64 // fraction of nodes whose storm-image replica is dropped (default 0.05)

	// Logical-clock service model.
	Slots      int     // virtual concurrent boot slots per node (default 2)
	DeviceMs   float64 // fixed device/hypervisor service time per boot (default 400)
	ShedMs     float64 // virtual admission deadline: queue waits beyond it shed (default 2000)
	HorizonSec float64 // arrival window the rate curves are shaped over (default 3600)
}

// storm shape: fraction of all arrivals compressed into the burst, where
// the burst starts, and how long it lasts relative to the horizon.
const (
	stormFrac        = 0.7
	stormStartFrac   = 1.0 / 3.0
	stormWindowDiv   = 120.0 // window = horizon/120 (30s for a 1h horizon)
	defaultResample  = 2048  // a memoized boot re-executes through the real machinery every N replays
	defaultBandwidth = 110e6 // bytes/sec converting BootReport transfer bytes to time; matches cluster.GigE
)

// provisionAt is the simulated base time of the provisioning
// registrations: the corpus epoch.
var provisionAt = time.Date(2014, 6, 23, 9, 0, 0, 0, time.UTC)

func (c Config) normalize() (Config, error) {
	if len(c.Images) == 0 || len(c.Nodes) == 0 {
		return c, fmt.Errorf("workload: config needs images and nodes")
	}
	if c.Boots <= 0 {
		return c, fmt.Errorf("workload: config needs a positive boot count")
	}
	switch c.Arrivals {
	case "":
		c.Arrivals = Poisson
	case Poisson, Diurnal, Flash:
	default:
		return c, fmt.Errorf("workload: unknown arrival process %q", c.Arrivals)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.ColdFrac < 0 || c.ColdFrac > 1 {
		return c, fmt.Errorf("workload: cold fraction %.2f outside [0,1]", c.ColdFrac)
	}
	if c.ColdFrac == 0 {
		c.ColdFrac = 0.05
	}
	if c.Slots <= 0 {
		c.Slots = 2
	}
	if c.DeviceMs <= 0 {
		c.DeviceMs = 400
	}
	if c.ShedMs <= 0 {
		c.ShedMs = 2000
	}
	if c.HorizonSec <= 0 {
		c.HorizonSec = 3600
	}
	return c, nil
}

// Summary is the streaming-aggregate result of one drive: a fixed-size
// record regardless of how many boots were scheduled. It is a pure
// function of (Config, deployment seed); ElapsedSec and HeapMB describe
// the driving process itself and are the only wall-clock fields.
type Summary struct {
	Arrivals string
	Index    string // filled by the control plane (central | gossip)
	Nodes    int
	Images   int

	Boots    int64 // arrivals scheduled
	Executed int64 // boots run through the real deployment machinery
	Admitted int64
	Shed     int64
	Warm     int64
	Cold     int64
	PeerHits int64 // cold boots whose bytes came from a peer, not the PFS

	ShedRate    float64 // Shed / Boots
	PeerHitRate float64 // PeerHits / Cold (0 when no cold boots)

	// Boot latency quantiles in milliseconds (queue wait + service).
	P50Ms  float64
	P95Ms  float64
	P99Ms  float64
	P999Ms float64
	MaxMs  float64
	MeanMs float64

	WaitP99Ms float64 // queueing component alone

	NetworkBytes int64 // Σ BootReport.NetworkBytes over all scheduled boots
	PeerBytes    int64

	ElapsedSec float64 // wall-clock duration of the drive phase
	HeapMB     float64 // process HeapAlloc after the drive (informational)
}

func (s Summary) String() string {
	return fmt.Sprintf("workload %s: %d boots on %d nodes, shed %.2f%%, peer-hit %.1f%%, p50 %.1fms p99 %.1fms p99.9 %.1fms",
		s.Arrivals, s.Boots, s.Nodes, 100*s.ShedRate, 100*s.PeerHitRate, s.P50Ms, s.P99Ms, s.P999Ms)
}
