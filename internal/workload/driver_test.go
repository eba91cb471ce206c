package workload

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// fakeDep is a deterministic in-memory Deployment: warm boots report
// zero transfer, boots of a dropped (node, image) replica report a
// fixed peer fetch.
type fakeDep struct {
	registered map[string]bool
	dropped    map[string]bool
	boots      int64
	bootErr    func(n int64) error // when set, decides boot n's failure
}

const fakePeerBytes = 350_000

func newFakeDep() *fakeDep {
	return &fakeDep{registered: map[string]bool{}, dropped: map[string]bool{}}
}

func (f *fakeDep) Register(_ context.Context, imageID string, _ time.Time) (core.RegisterReport, error) {
	if f.registered[imageID] {
		return core.RegisterReport{}, core.ErrRegistered
	}
	f.registered[imageID] = true
	return core.RegisterReport{ImageID: imageID}, nil
}

func (f *fakeDep) Boot(_ context.Context, req core.BootRequest) (core.BootReport, error) {
	f.boots++
	if f.bootErr != nil {
		if err := f.bootErr(f.boots); err != nil {
			return core.BootReport{}, err
		}
	}
	rep := core.BootReport{ImageID: req.Image, NodeID: req.Node, Warm: true}
	if f.dropped[req.Node+"|"+req.Image] {
		rep.Warm = false
		rep.PeerBytes = fakePeerBytes
		rep.NetworkBytes = fakePeerBytes
		rep.PeerStallSec = 0.003
	}
	return rep, nil
}

func (f *fakeDep) DropReplica(nodeID, imageID string) error {
	f.dropped[nodeID+"|"+imageID] = true
	return nil
}

func testCfg(arrivals string, nodes, images, boots int) Config {
	cfg := Config{Arrivals: arrivals, Boots: boots, Seed: 99}
	for i := 0; i < images; i++ {
		cfg.Images = append(cfg.Images, "img-"+string(rune('a'+i%26))+"-"+itoa(i))
	}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, "node"+itoa(i))
	}
	return cfg
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Same seed, same deployment shape => byte-identical Summary modulo the
// two wall-clock fields.
func TestDriverDeterminism(t *testing.T) {
	cfg := testCfg(Flash, 32, 8, 20000)
	run := func() Summary {
		sum, err := Run(context.Background(), newFakeDep(), cfg, nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		sum.ElapsedSec, sum.HeapMB = 0, 0
		return sum
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed summaries differ:\n  a: %+v\n  b: %+v", a, b)
	}
	if a.Boots != 20000 || a.Admitted+a.Shed != a.Boots {
		t.Fatalf("boot accounting broken: %+v", a)
	}
}

// Logical mode memoizes: driving 100k boots executes only a handful of
// real boots (one per warm image, one per cold pair, plus resamples).
func TestDriverMemoization(t *testing.T) {
	cfg := testCfg(Flash, 32, 8, 100000)
	dep := newFakeDep()
	sum, err := Run(context.Background(), dep, cfg, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sum.Executed != dep.boots {
		t.Fatalf("Executed %d != deployment boot count %d", sum.Executed, dep.boots)
	}
	// 8 warm keys + ~2 cold keys + ~100000/2048 resamples, with slack.
	if sum.Executed > 200 {
		t.Fatalf("Executed = %d real boots for 100k scheduled, memoization broken", sum.Executed)
	}
	if sum.Executed == 0 || sum.Admitted == 0 {
		t.Fatalf("nothing ran: %+v", sum)
	}
}

// Cold accounting: provision drops the storm image from ColdFrac of the
// nodes; every storm boot landing there is a cold peer hit.
func TestDriverColdAccounting(t *testing.T) {
	cfg := testCfg(Flash, 40, 8, 30000)
	cfg.ColdFrac = 0.1 // 4 cold nodes
	dep := newFakeDep()
	sum, err := Run(context.Background(), dep, cfg, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(dep.dropped) != 4 {
		t.Fatalf("provision dropped %d replicas, want 4", len(dep.dropped))
	}
	if sum.Cold == 0 {
		t.Fatalf("no cold boots despite %d dropped replicas", len(dep.dropped))
	}
	if sum.PeerHits != sum.Cold || sum.PeerHitRate != 1 {
		t.Fatalf("fake serves every cold boot from a peer: PeerHits=%d Cold=%d rate=%.2f",
			sum.PeerHits, sum.Cold, sum.PeerHitRate)
	}
	if sum.PeerBytes != sum.Cold*fakePeerBytes || sum.NetworkBytes != sum.PeerBytes {
		t.Fatalf("byte accounting: peer=%d net=%d cold=%d", sum.PeerBytes, sum.NetworkBytes, sum.Cold)
	}
	if sum.Warm+sum.Cold != sum.Admitted {
		t.Fatalf("warm %d + cold %d != admitted %d", sum.Warm, sum.Cold, sum.Admitted)
	}
}

// An offered load far beyond the virtual capacity sheds at the deadline
// instead of queueing without bound.
func TestDriverShedding(t *testing.T) {
	cfg := testCfg(Poisson, 4, 4, 5000)
	cfg.HorizonSec = 100 // 50 boots/s offered vs 4 nodes x 2 slots / 5s = 1.6/s served
	cfg.DeviceMs = 5000
	cfg.ShedMs = 500
	sum, err := Run(context.Background(), newFakeDep(), cfg, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sum.Shed == 0 {
		t.Fatalf("overload scenario shed nothing: %+v", sum)
	}
	if sum.ShedRate < 0.5 {
		t.Fatalf("ShedRate %.2f under 30x overload, want most arrivals shed", sum.ShedRate)
	}
	if sum.Admitted+sum.Shed != sum.Boots {
		t.Fatalf("accounting: admitted %d + shed %d != boots %d", sum.Admitted, sum.Shed, sum.Boots)
	}
	// Admitted boots never waited past the deadline.
	if sum.WaitP99Ms > cfg.ShedMs {
		t.Fatalf("admitted wait p99 %.0fms exceeds shed deadline %.0fms", sum.WaitP99Ms, cfg.ShedMs)
	}
}

// A boot error other than an overload aborts the drive, keeps its
// identity through the wrap, and names the boot it failed.
func TestDriverBootErrorAborts(t *testing.T) {
	cfg := testCfg(Poisson, 8, 4, 400)
	dep := newFakeDep()
	dep.bootErr = func(n int64) error {
		if n == 3 {
			return io.ErrUnexpectedEOF
		}
		return nil
	}
	_, err := Run(context.Background(), dep, cfg, nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want the boot error, got %v", err)
	}
	if dep.boots != 3 {
		t.Fatalf("drive went on after the failed boot: %d boots", dep.boots)
	}
	msg := err.Error()
	if !strings.Contains(msg, "img-") || !strings.Contains(msg, " on node") {
		t.Fatalf("boot error does not name its image and node: %v", err)
	}
}

// A cancelled context stops the drive with a wrapped cancellation error.
func TestDriverContextCancel(t *testing.T) {
	cfg := testCfg(Poisson, 8, 4, 50000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, newFakeDep(), cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("want cancellation error, got %v", err)
	}
}

// A finished run publishes the workload section into the telemetry
// snapshot.
func TestDriverPublishesWorkloadStats(t *testing.T) {
	cfg := testCfg(Flash, 16, 4, 5000)
	tel := obs.New(8)
	sum, err := Run(context.Background(), newFakeDep(), cfg, tel)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	snap := tel.Snapshot()
	ws := snap.Workload
	if ws == nil {
		t.Fatalf("snapshot has no workload section")
	}
	if ws.Arrivals != Flash || ws.Boots != sum.Boots || ws.Shed != sum.Shed || ws.P99Ms != sum.P99Ms {
		t.Fatalf("workload section %+v does not match summary %+v", ws, sum)
	}
	if !strings.Contains(snap.Prometheus(), `squirrel_workload_boots{arrivals="flash"}`) {
		t.Fatalf("prometheus export missing workload gauges")
	}
	// The drive is spanned: one workload root with provision + drive children.
	var roots int
	for _, d := range tel.Trees() {
		if d.Kind == obs.OpWorkload {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("want 1 workload root span, got %d", roots)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Boots: 10, Nodes: []string{"n0"}},                                            // no images
		{Boots: 10, Images: []string{"i"}},                                            // no nodes
		{Images: []string{"i"}, Nodes: []string{"n0"}},                                // no boots
		{Boots: 10, Images: []string{"i"}, Nodes: []string{"n0"}, Arrivals: "bursty"}, // bad process
		{Boots: 10, Images: []string{"i"}, Nodes: []string{"n0"}, ColdFrac: 1.5},      // bad fraction
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), newFakeDep(), cfg, nil); err == nil {
			t.Fatalf("config %d: want validation error, got nil", i)
		}
	}
	// Defaults fill everything else in.
	cfg, err := Config{Boots: 10, Images: []string{"i"}, Nodes: []string{"n0"}}.normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if cfg.Arrivals != Poisson || cfg.Seed != 1 || cfg.Tenants != 8 || cfg.ZipfS != 1.2 ||
		cfg.ColdFrac != 0.05 || cfg.Slots != 2 || cfg.DeviceMs != 400 || cfg.ShedMs != 2000 || cfg.HorizonSec != 3600 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}
