package core

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// BenchmarkBootWaveTracingOverhead measures what span recording costs on
// the hottest operator-facing path. It builds the same deployment twice,
// traced and untraced, registers a few images on each, and then every
// iteration runs one warm boot wave across the whole cluster on each
// side, alternating which side goes first, so ambient drift on a shared
// machine lands on both sides alike. overhead-% is the traced waves'
// total time over the untraced waves', minus one.
//
// The bar is asserted here: with at least tracingMinWaves waves per side
// the benchmark fails when the overhead is above tracingOverheadBar; a
// shorter run reports the figure without judging it.
//
//	go test -run '^$' -bench BenchmarkBootWaveTracingOverhead -benchtime 2000x ./internal/core/
func BenchmarkBootWaveTracingOverhead(b *testing.B) {
	const (
		images             = 4
		tracingOverheadBar = 5    // percent
		tracingMinWaves    = 2000 // per side
	)
	var spent [2]time.Duration // untraced, traced
	var wave [2]func()
	for side := range wave {
		opts := []option{withPeers, withFaults(fault.Plan{Seed: 7})}
		if side == 1 {
			opts = append(opts, withTracing(0))
		}
		sq, cl, repo, _ := testDeployment(b, 8, opts...)
		for i := 0; i < images; i++ {
			mustRegister(b, sq, repo.Images[i], day(i))
		}
		wave[side] = func() {
			start := time.Now()
			for img := 0; img < images; img++ {
				for _, n := range cl.Compute {
					if _, err := sq.Boot(context.Background(), BootRequest{Image: repo.Images[img].ID, Node: n.ID, Verify: false}); err != nil {
						b.Fatal(err)
					}
				}
			}
			spent[side] += time.Since(start)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave[i%2]()
		wave[1-i%2]()
	}
	overhead := 100 * (float64(spent[1])/float64(spent[0]) - 1)
	b.ReportMetric(overhead, "overhead-%")
	if b.N >= tracingMinWaves && overhead > tracingOverheadBar {
		b.Fatalf("tracing overhead on the boot wave: %.1f%% over %d waves per side, bar is <= %v%%",
			overhead, b.N, tracingOverheadBar)
	}
}

// BenchmarkWarmBoot is the ledger rung for the paper's common case, the
// in-process twin of the wire-level warm_boot workload: a daemon-shaped
// deployment (32 images, all registered, 8 compute nodes) and one seeded
// sequence of 1000 boots, Zipf 1.2 over images and uniform over nodes,
// replayed every iteration. Every boot is served by the node's own
// replica, so the figure is the local read path — store, checksum,
// decode, CoW chain — and a CPU profile of it
// (-cpuprofile, -benchtime 15x) attributes that path layer by layer.
// "local" is the wire warm_boot's deployment; "peers" runs the same mix
// with the peer exchange on, as the cold_boot daemon's warm boots do, so
// a cost the exchange adds to a boot that never leaves its node shows as
// the difference.
func BenchmarkWarmBoot(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts []option
	}{{"local", nil}, {"peers", []option{withPeers}}} {
		b.Run(mode.name, func(b *testing.B) {
			sq, seq := warmBootMix(b, mode.opts...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bootAllWarm(b, sq, seq)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(seq)), "us/boot")
		})
	}
}

// warmBootMix is BenchmarkWarmBoot's deployment, every image registered,
// and its boot sequence.
func warmBootMix(t testing.TB, opts ...option) (*Squirrel, []BootRequest) {
	const images, nodes, boots = 32, 8, 1000
	sq, _, repo, _ := testDeployment(t, nodes, append(opts, daemonCorpus(images))...)
	ims := repo.Images[:images]
	for i, im := range ims {
		mustRegister(t, sq, im, day(i))
	}
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.2, 1, images-1)
	seq := make([]BootRequest, boots)
	for i := range seq {
		seq[i] = BootRequest{Image: ims[zipf.Uint64()].ID, Node: sq.cl.Compute[r.Intn(nodes)].ID}
	}
	return sq, seq
}

// bootAllWarm boots seq in order and fails unless every boot is warm.
func bootAllWarm(t testing.TB, sq *Squirrel, seq []BootRequest) {
	t.Helper()
	for _, req := range seq {
		rep, err := sq.Boot(context.Background(), req)
		if err != nil || !rep.Warm {
			t.Fatalf("boot %s on %s: %+v, %v", req.Image, req.Node, rep, err)
		}
	}
}

// decodeCounted points every volume of sq at a fresh counter set, which
// then counts zvol.decode.hit and zvol.decode.miss without the tracing
// cfg.Obs would switch on.
func decodeCounted(sq *Squirrel) *metrics.CounterSet {
	c := metrics.NewCounterSet()
	sq.sc.SetCounters(c)
	for _, r := range sq.order {
		sq.ccVolume(r).SetCounters(c)
	}
	return c
}

// bootPayloads records in into each compressed block a warm boot of im
// decodes — the blocks under the cache extents of every cluster its trace
// touches — keyed by its address in node's replica, valued by its decoded
// length. Replicas alias the same stored payloads, deduplicated within
// each replica, so over all images one node's addresses count the
// deployment's distinct payloads.
func bootPayloads(t testing.TB, sq *Squirrel, im *corpus.Image, node string, into map[uint64]int32) {
	t.Helper()
	v, err := sq.CCVolume(node)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := v.BlockInfos(im.ID)
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int64, len(infos)) // cache-object offset where block i ends
	var end int64
	for i, bi := range infos {
		end += int64(bi.LogLen)
		ends[i] = end
	}
	c, size := sq.cfg.ClusterSize, im.RawSize()
	clusters := map[int64]bool{}
	lay := im.Layout()
	for _, e := range lay.Ext {
		for ci := e.Off / c; ci*c < min(e.Off+e.Len, size); ci++ {
			clusters[ci] = true
		}
	}
	for ci := range clusters {
		lo, hi := ci*c, min((ci+1)*c, size)
		for x := lay.Find(lo); x < len(lay.Ext) && lay.Ext[x].Off < hi; x++ {
			e := lay.Ext[x]
			a, z := max(lo, e.Off), min(hi, e.Off+e.Len)
			from, to := lay.Base[x]+a-e.Off, lay.Base[x]+z-e.Off
			for i := sort.Search(len(ends), func(i int) bool { return ends[i] > from }); i < len(infos) && ends[i]-int64(infos[i].LogLen) < to; i++ {
				if infos[i].Compressed {
					into[infos[i].Addr] = infos[i].LogLen
				}
			}
		}
	}
}

// BenchmarkColdBoot times a boot whose every cache range is served by
// the peer exchange, on the deployment shape the wire-level cold_boot
// workload uses (paper-default 64 KB blocks and clusters, gzip6, the
// daemon's corpus scaling): four holders, so least-loaded selection
// spreads each boot's fetches over several sources. This is the ledger
// rung for the source-side range read.
func BenchmarkColdBoot(b *testing.B) {
	sq, _, repo, _ := testDeployment(b, 5, daemonCorpus(4), withPeers)
	im := repo.Images[0]
	mustRegister(b, sq, im, day(0))
	if err := sq.DropReplica("node00", im.ID); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node00"})
		if err != nil {
			b.Fatal(err)
		}
		if rep.PeerBytes == 0 || rep.NetworkBytes != 0 {
			b.Fatalf("boot was not peer-served: %+v", rep)
		}
		b.SetBytes(rep.ReadBytes)
	}
}

// BenchmarkRegisterStream is the ledger rung for registration: one
// iteration is the wire-level register_stream round in process — a fresh
// deployment of the daemon's shape (320 images of the daemon's corpus
// scaling, 8 compute nodes, paper-default volumes) taking all 320
// registrations in corpus order. It reports the mean registration, the
// bytes one allocates, how much slower the last 64 of a round are than
// the first 64 — the drift a per-registration cost that grows with the
// snapshot count shows up as — the heap the deployment keeps alive once
// the round is over, which is where metadata that grows with history
// ends up, and the bytes the codec inflates per registration, which a
// fault-free round ships none of (0: the stream carries stored payloads,
// and only a damaged delivery encodes it).
func BenchmarkRegisterStream(b *testing.B) {
	const images, nodes, edge = 320, 8, 64
	var first, last, total time.Duration
	var allocated, live uint64
	codec := countedGzip()
	decoded := codec.decoded.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sq, _, repo, _ := testDeployment(b, nodes, daemonCorpus(images), func(s *setup) {
			s.Volume.Codec = codec.Name()
		})
		ims := repo.Images[:images]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for k, im := range ims {
			start := time.Now()
			rep, err := sq.Register(context.Background(), RegisterRequest{Image: im, At: t0.Add(time.Duration(k) * time.Minute)})
			d := time.Since(start)
			if err != nil || rep.Nodes != nodes {
				b.Fatalf("register %s: %+v, %v", im.ID, rep, err)
			}
			total += d
			switch {
			case k < edge:
				first += d
			case k >= images-edge:
				last += d
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		runtime.GC()
		runtime.ReadMemStats(&after)
		live += after.HeapAlloc
		runtime.KeepAlive(sq)
		b.StartTimer()
	}
	regs := float64(b.N * images)
	b.ReportMetric(total.Seconds()*1e3/regs, "ms/registration")
	b.ReportMetric(float64(allocated)/regs, "B/registration")
	b.ReportMetric(float64(last)/float64(first), "last64/first64")
	b.ReportMetric(float64(live)/float64(b.N)/1e6, "live-heap-MB")
	b.ReportMetric(float64(codec.decoded.Load()-decoded)/regs, "decoded-B/registration")
}

// statsSink keeps the compiler from dropping BenchmarkStats' calls.
var statsSink DeploymentStats

// BenchmarkStats is the ledger rung for the monitoring poll: Stats on a
// daemon-shaped deployment (8 compute nodes, so nine volumes) with 32 and
// then 320 images registered. A poll should cost what its answer costs —
// one fixed-size struct — so the figure to watch is the 320/32 ratio: a
// Stats that walks objects, snapshots or the DDT grows with history
// (every snapshot lists every earlier object, so the walk is quadratic
// and the ratio was ≈ 90); one that reads running totals stays near 1.
func BenchmarkStats(b *testing.B) {
	const small, large, nodes, calls = 32, 320, 8, 256
	sq, _, repo, _ := testDeployment(b, nodes, daemonCorpus(large))
	ims := repo.Images[:large]
	registered := 0
	registerTo := func(n int) {
		for ; registered < n; registered++ {
			at := t0.Add(time.Duration(registered) * time.Minute)
			mustRegister(b, sq, ims[registered], at)
		}
	}
	poll := func() time.Duration {
		start := time.Now()
		for i := 0; i < b.N*calls; i++ {
			statsSink = sq.Stats()
		}
		if statsSink.RegisteredImages != registered {
			b.Fatalf("Stats reports %d images, %d registered", statsSink.RegisteredImages, registered)
		}
		return time.Since(start)
	}
	registerTo(small)
	b.ResetTimer()
	atSmall := poll()
	b.StopTimer()
	registerTo(large)
	b.StartTimer()
	atLarge := poll()
	perCall := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(b.N*calls) }
	b.ReportMetric(perCall(atSmall), "us/stats@32")
	b.ReportMetric(perCall(atLarge), "us/stats@320")
	b.ReportMetric(float64(atLarge)/float64(atSmall), "320/32")
}
