package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Driver schedules one scenario against a deployment.
type Driver struct {
	cfg Config
	dep Deployment
	tel *obs.Telemetry // nil is fine: spans and the snapshot section are skipped
}

// New builds a driver. tel may be nil.
func New(dep Deployment, cfg Config, tel *obs.Telemetry) *Driver {
	return &Driver{cfg: cfg, dep: dep, tel: tel}
}

// Run provisions the catalog, drives Config.Boots arrivals through the
// deployment, and returns the streaming summary. See the package comment
// for the clock.
func Run(ctx context.Context, dep Deployment, cfg Config, tel *obs.Telemetry) (Summary, error) {
	return New(dep, cfg, tel).Run(ctx)
}

// Run executes the scenario.
func (d *Driver) Run(ctx context.Context) (Summary, error) {
	cfg, err := d.cfg.normalize()
	if err != nil {
		return Summary{}, err
	}
	root := d.tel.Tracer().StartOp(obs.OpWorkload, "", cfg.Arrivals)
	defer root.Finish()

	cold, err := d.provision(ctx, cfg, root)
	if err != nil {
		root.Fail(err)
		return Summary{}, err
	}

	dsp := root.Child(obs.OpWorkloadDrive, "", cfg.Arrivals)
	start := time.Now()
	sum, err := d.drive(ctx, cfg, cold)
	if err != nil {
		dsp.Fail(err)
		dsp.Finish()
		root.Fail(err)
		return Summary{}, err
	}
	sum.ElapsedSec = time.Since(start).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sum.HeapMB = float64(ms.HeapAlloc) / (1 << 20)
	dsp.Annotate("boots", sum.Boots)
	dsp.Annotate("shed", sum.Shed)
	dsp.AddBytes(sum.NetworkBytes)
	dsp.Finish()

	d.tel.SetWorkloadStats(obs.WorkloadStats{
		Arrivals: cfg.Arrivals, Nodes: len(cfg.Nodes),
		Boots: sum.Boots, Executed: sum.Executed, Shed: sum.Shed,
		PeerHits: sum.PeerHits, ShedRate: sum.ShedRate, PeerHitRate: sum.PeerHitRate,
		P50Ms: sum.P50Ms, P99Ms: sum.P99Ms, P999Ms: sum.P999Ms,
	})
	return sum, nil
}

// provision registers the catalog (idempotently: images a previous run
// registered are skipped) and drops the storm image's replica from a
// seeded ColdFrac of the nodes so the drive exercises the peer path.
// Returns the cold-node index set.
func (d *Driver) provision(ctx context.Context, cfg Config, parent *obs.Span) (map[int]bool, error) {
	sp := parent.Child(obs.OpWorkloadProvision, "", "")
	defer sp.Finish()
	for i, id := range cfg.Images {
		_, err := d.dep.Register(ctx, id, provisionAt.Add(time.Duration(i)*time.Minute))
		if err != nil && !errors.Is(err, core.ErrRegistered) {
			return nil, fmt.Errorf("workload: provision %s: %w", id, err)
		}
		if err == nil {
			sp.Annotate("registered", 1)
		}
	}
	hot := cfg.Images[len(cfg.Images)-1]
	k := int(cfg.ColdFrac*float64(len(cfg.Nodes)) + 0.5)
	if k == 0 {
		k = 1
	}
	if k > len(cfg.Nodes) {
		k = len(cfg.Nodes)
	}
	coldRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
	cold := make(map[int]bool, k)
	for _, idx := range coldRng.Perm(len(cfg.Nodes))[:k] {
		// A drop can fail if the node never held the replica (e.g. it was
		// already cold from an earlier run); that leaves it cold either way.
		_ = d.dep.DropReplica(cfg.Nodes[idx], hot)
		cold[idx] = true
	}
	sp.Annotate("cold_nodes", int64(k))
	return cold, nil
}

// picks derives (node, image) for each arrival: storm arrivals boot the
// newest image; everything else draws a tenant, then that tenant's
// Zipf-ranked image. One shared pick rng keeps the whole sequence a
// function of the seed.
type picks struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	perms [][]int // tenant → popularity-ranked image indexes
	nodes int
	hot   int
}

func newPicks(cfg Config) *picks {
	r := rand.New(rand.NewSource(cfg.Seed ^ 0x9E3779B9))
	p := &picks{
		rng:   r,
		zipf:  rand.NewZipf(r, cfg.ZipfS, 1, uint64(len(cfg.Images)-1)),
		perms: make([][]int, cfg.Tenants),
		nodes: len(cfg.Nodes),
		hot:   len(cfg.Images) - 1,
	}
	for t := range p.perms {
		p.perms[t] = r.Perm(len(cfg.Images))
	}
	return p
}

func (p *picks) next(storm bool) (node, img int) {
	node = p.rng.Intn(p.nodes)
	if storm {
		return node, p.hot
	}
	tenant := p.rng.Intn(len(p.perms))
	return node, p.perms[tenant][p.zipf.Uint64()]
}

// bootMemo caches deterministic BootReports. Keys
// distinguish only what changes the report: the image for warm boots
// (identical on every warm node), the (node, image) pair for cold ones.
// Every defaultResample replays of a key, the boot re-executes through
// the real machinery so peer fetches and hedges stay exercised (the
// virtual slots in drive are the admission model).
type bootMemo struct {
	reports map[uint64]core.BootReport
	hits    map[uint64]int64
}

func memoKey(node, img int, coldBoot bool) uint64 {
	if !coldBoot {
		return uint64(img)
	}
	return 1<<63 | uint64(node)<<24 | uint64(img)
}

// drive is the deterministic event loop: per-node virtual boot slots,
// deadline shedding, and service times derived from the real
// BootReports. No goroutines, no wall clocks.
func (d *Driver) drive(ctx context.Context, cfg Config, cold map[int]bool) (Summary, error) {
	sum := Summary{Arrivals: cfg.Arrivals, Nodes: len(cfg.Nodes), Images: len(cfg.Images)}
	gen := newArrivalGen(cfg, rand.New(rand.NewSource(cfg.Seed)))
	pk := newPicks(cfg)
	memo := bootMemo{
		reports: make(map[uint64]core.BootReport),
		hits:    make(map[uint64]int64),
	}

	// slotFree[n] holds, per virtual boot slot of node n, the virtual
	// time at which it next becomes idle — the entire queueing state.
	slotFree := make([][]float64, len(cfg.Nodes))
	slotBacking := make([]float64, len(cfg.Nodes)*cfg.Slots)
	for i := range slotFree {
		slotFree[i] = slotBacking[i*cfg.Slots : (i+1)*cfg.Slots : (i+1)*cfg.Slots]
	}

	var latHist, waitHist metrics.Histogram
	shedSec := cfg.ShedMs / 1e3

	for n := 0; n < cfg.Boots; n++ {
		if n%4096 == 0 && ctx.Err() != nil {
			return Summary{}, fmt.Errorf("workload: drive cancelled after %d boots: %w", n, ctx.Err())
		}
		ev := gen()
		node, img := pk.next(ev.storm)
		sum.Boots++

		// Virtual admission: the earliest-free slot decides the wait.
		slots := slotFree[node]
		minIdx := 0
		for i := 1; i < len(slots); i++ {
			if slots[i] < slots[minIdx] {
				minIdx = i
			}
		}
		wait := slots[minIdx] - ev.t
		if wait < 0 {
			wait = 0
		}
		if wait > shedSec {
			sum.Shed++
			continue // shed at the door; the slot stays as it was
		}

		coldBoot := img == pk.hot && cold[node]
		key := memoKey(node, img, coldBoot)
		rep, cached := memo.reports[key]
		memo.hits[key]++
		if !cached || memo.hits[key]%defaultResample == 0 {
			var err error
			rep, err = d.dep.Boot(ctx, core.BootRequest{Image: cfg.Images[img], Node: cfg.Nodes[node]})
			if err != nil {
				if errors.Is(err, core.ErrOverloaded) {
					sum.Shed++
					continue
				}
				return Summary{}, fmt.Errorf("workload: boot %s on %s: %w", cfg.Images[img], cfg.Nodes[node], err)
			}
			sum.Executed++
			memo.reports[key] = rep
		}

		svc := cfg.DeviceMs/1e3 + float64(rep.NetworkBytes)/defaultBandwidth + rep.PeerStallSec
		slots[minIdx] = ev.t + wait + svc

		sum.Admitted++
		if rep.Warm {
			sum.Warm++
		} else {
			sum.Cold++
			if rep.PeerBytes > 0 {
				sum.PeerHits++
			}
		}
		sum.NetworkBytes += rep.NetworkBytes
		sum.PeerBytes += rep.PeerBytes
		latHist.Observe(int64((wait + svc) * 1e9))
		waitHist.Observe(int64(wait * 1e9))
	}
	fold(&sum, &latHist, &waitHist)
	return sum, nil
}

// fold collapses the histograms into the summary's fixed quantile set.
func fold(sum *Summary, lat, wait *metrics.Histogram) {
	const ms = 1e6
	sum.P50Ms = float64(lat.Quantile(0.50)) / ms
	sum.P95Ms = float64(lat.Quantile(0.95)) / ms
	sum.P99Ms = float64(lat.Quantile(0.99)) / ms
	sum.P999Ms = float64(lat.Quantile(0.999)) / ms
	sum.MaxMs = float64(lat.Max()) / ms
	sum.MeanMs = lat.Mean() / ms
	sum.WaitP99Ms = float64(wait.Quantile(0.99)) / ms
	if sum.Boots > 0 {
		sum.ShedRate = float64(sum.Shed) / float64(sum.Boots)
	}
	if sum.Cold > 0 {
		sum.PeerHitRate = float64(sum.PeerHits) / float64(sum.Cold)
	}
}
