package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/wireclient"
)

// setupReps is how many times a run builds its deployment from
// nothing; setup_s is the median, so one slow spawn does not decide it.
const setupReps = 3

// verifySample caps the post-run Verify pass of register_stream, whose
// 320 images would otherwise cost more boots than the timed rounds of
// the boot workloads; the sample is drawn from the run's seed.
const verifySample = 32

// registerEpoch is the At of the first registration; later ones are
// spaced a minute apart, so retention never expires anything mid-run.
var registerEpoch = time.Date(2014, 6, 23, 9, 0, 0, 0, time.UTC)

// registerAt is the At of image i's registration.
func registerAt(i int) time.Time { return registerEpoch.Add(time.Duration(i) * time.Minute) }

// e2eResult is one workload's end-to-end measurement.
type e2eResult struct {
	Workload string `json:"workload"`
	// Metrics are the declared metrics, timings brought to the reference
	// machine speed by Scale (calib.go); Raw holds the same timings as
	// the clock read them.
	Metrics   map[string]float64 `json:"metrics"`
	Raw       map[string]float64 `json:"raw"`
	Scale     float64            `json:"machine_scale"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Failures holds the first few failure descriptions, for the log.
	Failures []string `json:"failures,omitempty"`

	Rounds        int       `json:"rounds"`
	Disturbed     int       `json:"disturbed_rounds"`
	Samples       int       `json:"samples"`
	TailPct       float64   `json:"tail_percentile"`
	OpsPerSec     []float64 `json:"ops_per_s_rounds"`
	CPUPerOp      []float64 `json:"cpu_ms_per_op_rounds"`
	ComputeRxKBOp float64   `json:"compute_rx_kb_per_op"`
}

// e2eMetrics are the metrics every workload reports with --trace 0, in
// print order. BENCHMARK.json declares exactly these.
var e2eMetrics = []metricDecl{
	{"setup_s", "s", false},
	{"ops_per_s", "1/s", false},
	{"op_p50_ms", "ms", false},
	{"op_p99_ms", "ms", false},
	{"cpu_ms_per_op", "ms", false},
	{"peak_rss_mb", "MB", false},
	{"replica_disk_ratio", "ratio", true},
}

// session is a connected deployment: the daemon, its clients, and what
// set-up learned about it.
type session struct {
	dep     deployment
	clients []*wireclient.Client
	info    ctlplane.Info
	// cacheBytes sums RegisterReport.CacheBytes over every image
	// registered so far: the user data replica_disk_ratio is relative to.
	cacheBytes int64
}

func (s *session) close() error {
	for _, c := range s.clients {
		_ = c.Close()
	}
	return s.dep.Stop()
}

// failures collects semantic and transport failures against the ops
// attempted. Only the first few are kept verbatim.
type failures struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string
}

func (f *failures) attempt(n int) {
	f.mu.Lock()
	f.attempted += n
	f.mu.Unlock()
}

func (f *failures) fail(format string, args ...any) {
	f.mu.Lock()
	f.failed++
	if len(f.first) < 8 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// setUp starts w's deployment and connects to it.
func setUp(launch launcher, w *workload, tag string, fl *failures) (*session, error) {
	dep, err := launch(w, tag)
	if err != nil {
		return nil, err
	}
	return connect(dep, w, w.clients, fl)
}

// connect dials clients connections to a started deployment and brings
// it to the state the first round expects: images registered, and on
// cold nodes every replica dropped. On error the deployment is stopped.
func connect(dep deployment, w *workload, clients int, fl *failures) (*session, error) {
	s := &session{dep: dep}
	fail := func(err error) (*session, error) {
		_ = s.close()
		return nil, err
	}
	for i := 0; i < clients; i++ {
		c, err := wireclient.Dial(wireclient.Options{Addr: dep.Addr()})
		if err != nil {
			return fail(fmt.Errorf("dial squirreld: %w", err))
		}
		s.clients = append(s.clients, c)
	}
	ctl := s.clients[0]
	var err error
	if s.info, err = ctl.Info(); err != nil {
		return fail(fmt.Errorf("info: %w", err))
	}
	if len(s.info.Images) != w.images || len(s.info.ComputeNodes) != w.nodes {
		return fail(fmt.Errorf("deployment has %d images and %d nodes, workload wants %d and %d",
			len(s.info.Images), len(s.info.ComputeNodes), w.images, w.nodes))
	}
	for i := 0; i < w.preRegistered(); i++ {
		fl.attempt(1)
		rep, err := ctl.Register(context.Background(), s.info.Images[i], registerAt(i))
		checkRegister(fl, w, rep, err)
		s.cacheBytes += rep.CacheBytes
	}
	for n := 0; n < w.coldNodes; n++ {
		for _, im := range s.info.Images {
			if err := ctl.DropReplica(s.info.ComputeNodes[n], im); err != nil {
				return fail(fmt.Errorf("drop replica: %w", err))
			}
		}
	}
	return s, nil
}

func checkRegister(fl *failures, w *workload, rep core.RegisterReport, err error) {
	switch {
	case err != nil:
		fl.fail("register: %v", err)
	case rep.Nodes != w.nodes:
		fl.fail("register %s reached %d of %d nodes", rep.ImageID, rep.Nodes, w.nodes)
	case len(rep.Lagging)+len(rep.Crashed)+len(rep.Torn) > 0:
		fl.fail("register %s left lagging=%v crashed=%v torn=%v", rep.ImageID, rep.Lagging, rep.Crashed, rep.Torn)
	}
}

// bootTuple is the byte provenance of one boot. It is a function of the
// image and of whether the node held a replica, so every boot of one
// image on one kind of node must report the same tuple.
type bootTuple struct{ read, cache, peer, network int64 }

// roundOut is what one client brings back from one round.
type roundOut struct {
	latMs []float64
	boots []core.BootReport
	regs  []core.RegisterReport
}

// checker validates replies; it carries the expectations that span ops
// (tuple identity, the round's starting ComputeRx).
type checker struct {
	w  *workload
	fl *failures

	mu     sync.Mutex
	tuples map[string]bootTuple // image → tuple on this workload's kind of node
	rx0    int64                // ComputeRx when the round began: a ComputeRx op of control_rpc, which moves no bytes, must read it
}

func (ck *checker) boot(rep core.BootReport) {
	cold := ck.w.coldNodes > 0
	switch {
	case !cold && !(rep.Warm && rep.NetworkBytes == 0 && rep.PeerBytes == 0):
		ck.fl.fail("boot %s on %s not warm: %+v", rep.ImageID, rep.NodeID, rep)
		return
	case cold && !(!rep.Warm && rep.PeerBytes > 0):
		ck.fl.fail("boot %s on %s not a peer-served cold miss: %+v", rep.ImageID, rep.NodeID, rep)
		return
	}
	t := bootTuple{rep.ReadBytes, rep.CacheBytes, rep.PeerBytes, rep.NetworkBytes}
	ck.mu.Lock()
	first, seen := ck.tuples[rep.ImageID]
	if !seen {
		ck.tuples[rep.ImageID] = t
	}
	ck.mu.Unlock()
	if seen && first != t {
		ck.fl.fail("boot %s on %s: bytes %+v differ from an earlier boot's %+v", rep.ImageID, rep.NodeID, t, first)
	}
}

// runClient issues ops in order on one connection, closed loop, and
// times each call.
func runClient(c *wireclient.Client, s *session, ops []op, ck *checker, out *roundOut) {
	ctx := context.Background()
	for _, o := range ops {
		start := time.Now()
		switch o.kind {
		case opBoot:
			rep, err := c.Boot(ctx, core.BootRequest{Image: s.info.Images[o.image], Node: s.info.ComputeNodes[o.node]})
			out.latMs = append(out.latMs, msSince(start))
			out.boots = append(out.boots, rep)
			if err != nil {
				ck.fl.fail("boot: %v", err)
			}
			continue // reports are checked after the round, off the clock
		case opRegister:
			rep, err := c.Register(ctx, s.info.Images[o.image], registerAt(o.image))
			out.latMs = append(out.latMs, msSince(start))
			out.regs = append(out.regs, rep)
			if err != nil {
				ck.fl.fail("register: %v", err)
			}
			continue
		case opComputeRx:
			rx, err := c.ComputeRx()
			out.latMs = append(out.latMs, msSince(start))
			if err != nil || rx != ck.rx0 {
				ck.fl.fail("compute_rx = %d, %v; want %d", rx, err, ck.rx0)
			}
		case opHealth:
			hs, err := c.Health()
			out.latMs = append(out.latMs, msSince(start))
			if err != nil || len(hs) != ck.w.nodes {
				ck.fl.fail("health: %d nodes, %v; want %d", len(hs), err, ck.w.nodes)
				continue
			}
			for _, h := range hs {
				if !h.Online || h.Lagging || h.CorruptBlocks != 0 {
					ck.fl.fail("health: node %s unhealthy: %+v", h.NodeID, h)
					break
				}
			}
		case opInfo:
			info, err := c.Info()
			out.latMs = append(out.latMs, msSince(start))
			if err != nil || len(info.Images) != ck.w.images || info.CacheBytes != s.info.CacheBytes {
				ck.fl.fail("info: %d images, %d cache bytes, %v", len(info.Images), info.CacheBytes, err)
			}
		case opStats:
			st, err := c.Stats()
			out.latMs = append(out.latMs, msSince(start))
			if err != nil || st.RegisteredImages != ck.w.images || st.OnlineNodes != ck.w.nodes || st.StaleReplicas != 0 {
				ck.fl.fail("stats: %+v, %v", st, err)
			}
		}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// maxStealFrac is the share of the machine's CPU time the hypervisor may
// take from this guest during a round before the round stops being a
// measurement of squirreld. On a shared box steal arrives in bursts
// that halve throughput for a minute; on a quiet one it stays under 2 %.
const maxStealFrac = 0.03

// timed is a duration with the factor that brings it to the reference
// machine speed, taken right after it was measured.
type timed struct{ sec, scale float64 }

// roundStats is one measured round.
type roundStats struct {
	wallSec float64
	cpuMs   float64
	// stealFrac is the CPU time stolen from the guest during the round
	// as a share of what its CPUs could have run.
	stealFrac float64
	// setup is the round's own set-up, where every round has one.
	setup timed
	// scale brings the round's times to the reference machine speed.
	scale   float64
	latMs   []float64
	rxBytes int64 // ComputeRx delta over the round
	netByte int64 // Σ PeerBytes+NetworkBytes the round's boots reported
}

// runRound replays seq once: client i takes every len(clients)-th op
// starting at i, so each connection's order is fixed by the seed.
func runRound(s *session, w *workload, seq []op, ck *checker, cal *calibrator) (roundStats, error) {
	per := make([][]op, len(s.clients))
	for i, o := range seq {
		per[i%len(per)] = append(per[i%len(per)], o)
	}
	outs := make([]roundOut, len(per))
	for i := range outs {
		outs[i].latMs = make([]float64, 0, len(per[i]))
	}
	rx0, err := s.clients[0].ComputeRx()
	if err != nil {
		return roundStats{}, fmt.Errorf("compute_rx: %w", err)
	}
	ck.rx0 = rx0
	cpu0, err := s.dep.CPUms()
	if err != nil {
		return roundStats{}, err
	}
	steal0, err := hostStealMs()
	if err != nil {
		return roundStats{}, err
	}
	ck.fl.attempt(len(seq))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range per {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClient(s.clients[i], s, per[i], ck, &outs[i])
		}(i)
	}
	wg.Wait()
	rs := roundStats{wallSec: time.Since(start).Seconds()}
	steal1, err := hostStealMs()
	if err != nil {
		return roundStats{}, err
	}
	rs.stealFrac = (steal1 - steal0) / (rs.wallSec * 1000 * float64(runtime.NumCPU()))
	cpu1, err := s.dep.CPUms()
	if err != nil {
		return roundStats{}, err
	}
	rs.cpuMs = cpu1 - cpu0
	rs.scale = cal.scale()
	rx1, err := s.clients[0].ComputeRx()
	if err != nil {
		return roundStats{}, fmt.Errorf("compute_rx: %w", err)
	}
	rs.rxBytes = rx1 - rx0
	for i := range outs {
		rs.latMs = append(rs.latMs, outs[i].latMs...)
		for _, rep := range outs[i].boots {
			if rep.ImageID == "" {
				continue // the call failed and was counted when it did
			}
			ck.boot(rep)
			rs.netByte += rep.PeerBytes + rep.NetworkBytes
		}
		for _, rep := range outs[i].regs {
			if rep.ImageID == "" {
				continue
			}
			checkRegister(ck.fl, w, rep, nil)
			s.cacheBytes += rep.CacheBytes
			rs.netByte += rep.DiffBytes * int64(rep.Nodes)
		}
	}
	// Bytes into compute-node NICs are conserved: they are exactly what
	// the boots report having pulled (peers + PFS), or the diff every
	// replica received.
	if rs.rxBytes != rs.netByte {
		ck.fl.fail("compute nodes received %d bytes, the round's reports account for %d", rs.rxBytes, rs.netByte)
	}
	return rs, nil
}

// verifyPass boots images with Verify set — every read compared with
// the image's true content — once on a node that holds a replica and
// once on a node that does not. Where the workload left no cold node,
// one replica is dropped to make one. It runs after the timed rounds.
func verifyPass(s *session, w *workload, seed int64, fl *failures) {
	ctl := s.clients[0]
	ctx := context.Background()
	images := s.info.Images
	if len(images) > verifySample {
		r := rand.New(rand.NewSource(seed))
		pick := r.Perm(len(images))[:verifySample]
		sampled := make([]string, len(pick))
		for i, p := range pick {
			sampled[i] = images[p]
		}
		images = sampled
	}
	coldNode := s.info.ComputeNodes[0]
	warmNode := s.info.ComputeNodes[w.nodes-1]
	for _, im := range images {
		if w.coldNodes == 0 {
			if err := ctl.DropReplica(coldNode, im); err != nil {
				fl.attempt(1)
				fl.fail("verify: drop %s on %s: %v", im, coldNode, err)
				continue
			}
		}
		fl.attempt(2)
		rep, err := ctl.Boot(ctx, core.BootRequest{Image: im, Node: warmNode, Verify: true})
		if err != nil || !rep.Warm {
			fl.fail("verify: warm boot %s on %s: warm=%v, %v", im, warmNode, rep.Warm, err)
		}
		rep, err = ctl.Boot(ctx, core.BootRequest{Image: im, Node: coldNode, Verify: true})
		if err != nil || rep.Warm || rep.PeerBytes+rep.NetworkBytes == 0 {
			fl.fail("verify: cold boot %s on %s: %+v, %v", im, coldNode, rep, err)
		}
	}
}

// quietest returns the rounds the hypervisor left alone (steal at most
// maxStealFrac), in the order they ran; where fewer than min were, the
// min least-disturbed ones.
func quietest(all []roundStats, min int) []roundStats {
	var quiet []roundStats
	for _, r := range all {
		if r.stealFrac <= maxStealFrac {
			quiet = append(quiet, r)
		}
	}
	if len(quiet) >= min {
		return quiet
	}
	if len(all) <= min {
		return all
	}
	bySteal := append([]roundStats(nil), all...)
	sort.SliceStable(bySteal, func(i, j int) bool { return bySteal[i].stealFrac < bySteal[j].stealFrac })
	return bySteal[:min]
}

// runE2E measures one workload end to end, nothing traced: set-up
// (repeated, median reported), one discarded warm-up round, measured
// rounds until seconds have elapsed, then the correctness pass.
func runE2E(launch launcher, w *workload, seed int64, seconds float64, minRounds int) (*e2eResult, error) {
	fl := &failures{}
	seq := w.sequence(seed)
	ck := &checker{w: w, fl: fl, tuples: map[string]bootTuple{}}

	cal := newCalibrator()
	var s *session
	build := func(tag string) (timed, error) {
		start := time.Now()
		var err error
		s, err = setUp(launch, w, w.name+"-"+tag, fl)
		return timed{time.Since(start).Seconds(), cal.scale()}, err
	}
	defer func() {
		if s != nil {
			_ = s.close()
		}
	}()
	teardown := func() error {
		err := s.close()
		s = nil
		return err
	}

	var setups []timed
	if !w.freshPerRound {
		for i := 0; i < setupReps; i++ {
			if s != nil {
				if err := teardown(); err != nil {
					return nil, err
				}
			}
			setup, err := build(fmt.Sprintf("setup%d", i))
			if err != nil {
				return nil, err
			}
			setups = append(setups, setup)
		}
	}

	// Measured rounds run until seconds have elapsed and minRounds of
	// them were undisturbed; a box that stays disturbed gets twice the
	// time and then reports its quietest rounds.
	var all []roundStats
	var peakRSS float64
	var measuring time.Time
	for i, quiet := 0, 0; ; i++ {
		var setup timed
		if w.freshPerRound {
			if s != nil {
				if err := teardown(); err != nil {
					return nil, err
				}
			}
			var err error
			if setup, err = build(fmt.Sprintf("round%d", i)); err != nil {
				return nil, err
			}
		}
		rs, err := runRound(s, w, seq, ck, cal)
		if err != nil {
			return nil, err
		}
		rs.setup = setup
		rss, err := s.dep.PeakRSSMB()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			measuring = time.Now()
			continue // warm-up: caches filled, lazy set-up done, result discarded
		}
		all = append(all, rs)
		if rss > peakRSS {
			peakRSS = rss
		}
		if rs.stealFrac <= maxStealFrac {
			quiet++
		}
		elapsed := time.Since(measuring).Seconds()
		if (quiet >= minRounds && elapsed >= seconds) || (len(all) >= minRounds && elapsed >= 2*seconds) {
			break
		}
	}
	rounds := quietest(all, minRounds)

	st, err := s.clients[0].Stats()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	if st.RegisteredImages != w.images {
		fl.fail("deployment ends with %d registered images, want %d", st.RegisteredImages, w.images)
	}
	diskRatio := float64(st.ReplicaDiskBytes) / float64(s.cacheBytes)
	verifyPass(s, w, seed, fl)
	if err := teardown(); err != nil {
		fl.attempt(1)
		fl.fail("%v", err)
	}

	var rx int64
	for _, r := range rounds {
		if w.freshPerRound {
			setups = append(setups, r.setup)
		}
		rx += r.rxBytes
	}
	res := &e2eResult{
		Workload:      w.name,
		Attempted:     fl.attempted,
		Failed:        fl.failed,
		Failures:      fl.first,
		Rounds:        len(rounds),
		Disturbed:     len(all) - len(rounds),
		ComputeRxKBOp: float64(rx) / 1024 / float64(len(seq)*len(rounds)),
	}
	res.Raw = res.timings(len(seq), setups, rounds)
	// One factor for the whole run: the machine changes speed over
	// minutes, not rounds, and a median of many calibrations is steadier
	// than any one of them.
	scales := make([]float64, 0, len(setups)+len(rounds))
	for _, st := range setups {
		scales = append(scales, st.scale)
	}
	for _, r := range rounds {
		scales = append(scales, r.scale)
	}
	res.Scale = median(scales)
	res.Metrics = map[string]float64{
		"setup_s":            res.Raw["setup_s"] * res.Scale,
		"ops_per_s":          res.Raw["ops_per_s"] / res.Scale,
		"op_p50_ms":          res.Raw["op_p50_ms"] * res.Scale,
		"op_p99_ms":          res.Raw["op_p99_ms"] * res.Scale,
		"cpu_ms_per_op":      res.Raw["cpu_ms_per_op"] * res.Scale,
		"peak_rss_mb":        peakRSS,
		"replica_disk_ratio": diskRatio,
	}
	return res, nil
}

// timings reduces a run's set-ups and rounds to its timing metrics as
// the clock read them.
func (res *e2eResult) timings(ops int, setups []timed, rounds []roundStats) map[string]float64 {
	var setupSec, lat []float64
	for _, st := range setups {
		setupSec = append(setupSec, st.sec)
	}
	n := float64(ops)
	for _, r := range rounds {
		res.OpsPerSec = append(res.OpsPerSec, n/r.wallSec)
		res.CPUPerOp = append(res.CPUPerOp, r.cpuMs/n)
		lat = append(lat, r.latMs...)
	}
	lat = sortedCopy(lat)
	res.Samples, res.TailPct = len(lat), tailPercentile(len(lat), 99)
	return map[string]float64{
		"setup_s":       median(setupSec),
		"ops_per_s":     median(res.OpsPerSec),
		"op_p50_ms":     percentile(lat, 50),
		"op_p99_ms":     percentile(lat, res.TailPct),
		"cpu_ms_per_op": median(res.CPUPerOp),
	}
}
