package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDecl declares one metric this benchmark emits.
type metricDecl struct {
	name string
	unit string
	// count marks a metric that is a count made by the program, not a
	// time: it must repeat exactly from run to run.
	count bool
}

// layerMetrics is every per-layer metric, in print order, named
// <module>.<metric>. BENCHMARK.json declares exactly these; README.md
// says which end-to-end metric each should move, on which workload.
var layerMetrics = []metricDecl{
	{"wireclient.rpc_rtt_us", "us", false},
	{"wireclient.dial_ms", "ms", false},
	{"wireproto.frame_encode_ns", "ns", false},
	{"wireproto.frame_decode_ns", "ns", false},
	{"wireproto.frame_bytes_per_op", "B", true},
	{"ctlplane.json_encode_ns", "ns", false},
	{"ctlplane.json_decode_ns", "ns", false},
	{"daemon.wire_overhead_us", "us", false},
	{"core.boot_warm_us", "us", false},
	{"core.boot_warm_self_us", "us", false},
	{"core.boot_alloc_kb_per_op", "KB", false},
	{"core.boot_allocs_per_op", "count", false},
	{"core.boot_cold_us", "us", false},
	{"core.boot_cold_self_us", "us", false},
	{"core.register_ms", "ms", false},
	{"core.register_self_ms", "ms", false},
	{"core.register_alloc_kb_per_op", "KB", false},
	{"core.stats_us", "us", false},
	{"core.health_us", "us", false},
	{"peer.acquire_ns", "ns", false},
	{"peer.hit_ratio", "ratio", true},
	{"peer.fallbacks_per_boot", "count", true},
	{"qcow.replay_us", "us", false},
	{"qcow.overfetch_ratio", "ratio", true},
	{"zvol.read_object_us", "us", false},
	{"zvol.read_mbps", "MB/s", false},
	{"zvol.read_alloc_bytes_per_byte", "ratio", false},
	{"zvol.write_cold_mbps", "MB/s", false},
	{"zvol.rewrite_mbps", "MB/s", false},
	{"zvol.snapshot_us", "us", false},
	{"zvol.send_us", "us", false},
	{"zvol.stream_encode_mbps", "MB/s", false},
	{"zvol.stream_decode_mbps", "MB/s", false},
	{"zvol.prepare_us", "us", false},
	{"zvol.receive_prepared_us", "us", false},
	{"zvol.receive_us", "us", false},
	{"zvol.stream_bytes_per_cache_byte", "ratio", true},
	{"zvol.stats_us", "us", false},
	{"dedup.lookup_ns", "ns", false},
	{"dedup.reference_ns", "ns", false},
	{"dedup.hit_ratio", "ratio", true},
	{"compress.gzip6_compress_mbps", "MB/s", false},
	{"compress.gzip6_decompress_mbps", "MB/s", false},
	{"compress.gzip6_ratio", "ratio", true},
	{"block.hash_mbps", "MB/s", false},
	{"store.alloc_ns", "ns", false},
	{"store.read_ns", "ns", false},
	{"cluster.pfs_read_mbps", "MB/s", false},
	{"cluster.unicast_us", "us", false},
	{"cluster.multicast_us", "us", false},
	{"cluster.compute_rx_kb_per_cold_boot", "KB", true},
	{"cluster.compute_rx_kb_per_register", "KB", true},
	{"corpus.cache_reader_mbps", "MB/s", false},
	{"bench.trace_overhead_pct", "%", false},
}

// stackRow is one line of a stack-up: a span name, the median duration
// of its spans, and the median of what is left of each once its
// children are taken away.
type stackRow struct {
	Depth  int     `json:"depth"`
	Name   string  `json:"name"`
	N      int     `json:"n"`
	P50Us  float64 `json:"p50_us"`
	SelfUs float64 `json:"self_us"`
}

// tracedResult is the traced run's outcome.
type tracedResult struct {
	Metrics   map[string]float64    `json:"metrics"`
	StackUps  map[string][]stackRow `json:"stack_ups"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Failures  []string              `json:"failures,omitempty"`
}

// stackUp folds a replay's spans into rows by span name: roots first,
// each followed by its children, depth first. A name's children are the
// names whose spans have a span of that name as parent. Self time is
// taken per op — the span's duration minus its own children's — and the
// median of those differences reported, so that ops of different sizes
// do not blur it.
func stackUp(rp *replay) []stackRow {
	spans := rp.rec.spans
	nameOf := map[int]string{}
	childUs := map[int]float64{} // span ID → Σ duration of its children
	for _, s := range spans {
		nameOf[s.ID] = s.Name
		if s.Parent > 0 {
			childUs[s.Parent] += s.us()
		}
	}
	children := map[string][]string{} // parent name ("" for roots) → child names, first-seen order
	self := map[string][]float64{}
	for _, s := range spans {
		if s.Parent == sideSpan {
			continue
		}
		if _, seen := self[s.Name]; !seen {
			children[nameOf[s.Parent]] = append(children[nameOf[s.Parent]], s.Name)
		}
		self[s.Name] = append(self[s.Name], s.us()-childUs[s.ID])
	}
	durs := rp.durations()
	var rows []stackRow
	var walk func(name string, depth int)
	walk = func(name string, depth int) {
		rows = append(rows, stackRow{Depth: depth, Name: name, N: len(durs[name]), P50Us: median(durs[name]), SelfUs: median(self[name])})
		for _, c := range children[name] {
			walk(c, depth+1)
		}
	}
	for _, root := range children[""] {
		walk(root, 0)
	}
	return rows
}

// selfUs is the self time of the rows' span named name.
func selfUs(rows []stackRow, name string) float64 {
	for _, r := range rows {
		if r.Name == name {
			return r.SelfUs
		}
	}
	return math.NaN()
}

func printStackUp(workload string, rows []stackRow) {
	fmt.Printf("-- stack-up %s: median span duration; self = median over ops of (span - its children)\n", workload)
	fmt.Printf("   %-36s %7s %12s %12s %8s\n", "span", "n", "p50 us", "self us", "of root")
	var root float64
	for _, r := range rows {
		if r.Depth == 0 {
			root = r.P50Us
		}
		flag := ""
		if r.SelfUs < 0 {
			flag = "  NEGATIVE SELF TIME"
		}
		fmt.Printf("   %-36s %7d %12.1f %12.1f %7.1f%%%s\n",
			strings.Repeat("  ", r.Depth)+r.Name, r.N, r.P50Us, r.SelfUs, 100*r.P50Us/root, flag)
	}
}

// traced is the traced run: every workload's fixed prefix replayed
// single-threaded in-process with spans recorded around the calls into
// each layer, then the leaf layers probed directly. It always measures
// the whole per-layer set; sel picks whose stack-up is printed.
func (b *bench) traced(sel *workload) (*tracedResult, error) {
	return runTraced(workloads, sel, b.seed, b.seconds, fullProbes, b.outDir)
}

func runTraced(ws []*workload, sel *workload, seed int64, seconds float64, size probeSize, outDir string) (*tracedResult, error) {
	fmt.Printf("== traced run (seed %d): per-layer metrics from in-process replays, single-threaded\n", seed)
	replays := map[string]*replay{}
	res := &tracedResult{Metrics: map[string]float64{}, StackUps: map[string][]stackRow{}}
	for _, w := range ws {
		seq := w.sequence(seed)
		var rp *replay
		var err error
		switch w.name {
		case "warm_boot", "cold_boot":
			rp, err = replayBoots(w, seq)
		case "register_stream":
			rp, err = replayRegisters(w, seq)
		case "control_rpc":
			rp, err = replayControl(w, seq)
		}
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", w.name, err)
		}
		if err := rp.rec.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
		replays[w.name] = rp
		res.StackUps[w.name] = stackUp(rp)
		res.Attempted += rp.fl.attempted
		res.Failed += rp.fl.failed
		res.Failures = append(res.Failures, rp.fl.first...)
	}
	warm, cold := replays["warm_boot"], replays["cold_boot"]
	reg, ctl := replays["register_stream"], replays["control_rpc"]

	// The probes share what --seconds leaves after the replays' fixed
	// op counts: half of it, split evenly.
	const probes = 15
	budget := time.Duration(seconds / 2 / probes * float64(time.Second))
	images, err := rebuildCorpus(ws[0].images)
	if err != nil {
		return nil, err
	}
	m, err := layerProbes(budget, size, images, warm.lastReq, warm.lastRep)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}

	m["wireclient.rpc_rtt_us"] = ctl.p50("wire.compute_rx")
	m["wireclient.dial_ms"] = ctl.p50("wireclient.dial") / 1e3
	m["daemon.wire_overhead_us"] = warm.p50("wire.boot") - warm.p50("core.boot")

	nWarm, nReg := float64(len(warm.durations()["core.boot"])), float64(len(reg.durations()["core.register"]))
	m["core.boot_warm_us"] = warm.p50("core.boot")
	m["core.boot_warm_self_us"] = selfUs(res.StackUps["warm_boot"], "core.boot")
	m["core.boot_alloc_kb_per_op"] = float64(warm.allocBytes) / 1024 / nWarm
	m["core.boot_allocs_per_op"] = float64(warm.allocs) / nWarm
	m["core.boot_cold_us"] = cold.p50("core.boot")
	m["core.boot_cold_self_us"] = selfUs(res.StackUps["cold_boot"], "core.boot")
	m["core.register_ms"] = reg.p50("core.register") / 1e3
	m["core.register_self_ms"] = selfUs(res.StackUps["register_stream"], "core.register") / 1e3
	m["core.register_alloc_kb_per_op"] = float64(reg.allocBytes) / 1024 / nReg
	m["core.stats_us"] = ctl.p50("core.stats")
	m["core.health_us"] = ctl.p50("core.health")

	m["peer.acquire_ns"] = cold.sum("peer.acquire") * 1e3 / cold.counts["acquires"]
	m["peer.hit_ratio"] = cold.counts["peer.hit_ratio"]
	m["peer.fallbacks_per_boot"] = cold.counts["peer.fallbacks_per_boot"]
	m["qcow.replay_us"] = warm.p50("qcow.replay")
	m["qcow.overfetch_ratio"] = warm.counts["qcow.overfetch_ratio"]

	m["zvol.read_object_us"] = warm.p50("zvol.read_object")
	m["zvol.read_mbps"] = warm.counts["read_bytes"] / warm.sum("zvol.read_object")
	m["zvol.snapshot_us"] = reg.p50("zvol.snapshot")
	m["zvol.send_us"] = reg.p50("zvol.send")
	m["zvol.stream_encode_mbps"] = reg.counts["stream_bytes"] / reg.sum("zvol.stream_encode")
	m["zvol.stream_decode_mbps"] = reg.counts["stream_bytes"] / reg.sum("zvol.stream_decode")
	m["zvol.prepare_us"] = reg.p50("zvol.prepare")
	m["zvol.receive_prepared_us"] = reg.p50("zvol.receive_prepared")
	m["zvol.receive_us"] = reg.p50("zvol.receive")
	m["zvol.stream_bytes_per_cache_byte"] = reg.counts["zvol.stream_bytes_per_cache_byte"]
	m["zvol.stats_us"] = ctl.p50("zvol.stats_all") / ctl.counts["volumes"]
	m["dedup.hit_ratio"] = reg.counts["dedup.hit_ratio"]

	m["cluster.unicast_us"] = cold.sum("cluster.unicast") / cold.counts["acquires"]
	m["cluster.multicast_us"] = reg.p50("cluster.multicast")
	m["cluster.compute_rx_kb_per_cold_boot"] = cold.counts["compute_rx_kb_per_op"]
	m["cluster.compute_rx_kb_per_register"] = reg.counts["compute_rx_kb_per_op"]
	m["corpus.cache_reader_mbps"] = reg.counts["cache_bytes"] / reg.sum("corpus.cache_reader")
	m["bench.trace_overhead_pct"] = warm.counts["trace_overhead_pct"]

	for _, lm := range layerMetrics {
		v, ok := m[lm.name]
		if !ok {
			return nil, fmt.Errorf("traced run did not produce %s", lm.name)
		}
		res.Metrics[lm.name] = v
		note := ""
		if lm.count {
			note = "   (exact count)"
		}
		fmt.Printf("   %-38s %14.6g %-6s%s\n", lm.name, v, lm.unit, note)
	}
	if len(m) != len(res.Metrics) {
		var extra []string
		for name := range m {
			if _, declared := res.Metrics[name]; !declared {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("traced run produced undeclared metrics %v", extra)
	}
	printStackUp(sel.name, res.StackUps[sel.name])
	for _, f := range res.Failures {
		fmt.Printf("   FAIL: %s\n", f)
	}
	return res, nil
}
