package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// OpSummary is one op kind's aggregate in a telemetry snapshot.
// Latency quantiles are wall-clock milliseconds drawn from the
// registry's nanosecond histogram.
type OpSummary struct {
	Kind   string  `json:"kind"`
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	Bytes  int64   `json:"bytes"`
	SimSec float64 `json:"sim_sec"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// NodeSummary is one node's aggregate across all op kinds.
type NodeSummary struct {
	Node   string `json:"node"`
	Count  int64  `json:"count"`
	Errors int64  `json:"errors"`
	Bytes  int64  `json:"bytes"`
}

// Snapshot is one coherent view of a deployment's telemetry: per-op
// rollups, per-node rollups, the shared counter registry, and ring
// bookkeeping. Built by Telemetry.Snapshot; rendered by JSON and
// Prometheus.
type Snapshot struct {
	Ops           []OpSummary      `json:"ops"`
	Nodes         []NodeSummary    `json:"nodes"`
	Counters      map[string]int64 `json:"counters"`
	SpansRecorded uint64           `json:"spans_recorded"`     // root ops ever appended to the ring
	FailedOps     int              `json:"failed_ops"`         // failed roots still held by the ring
	Workload      *WorkloadStats   `json:"workload,omitempty"` // most recent workload drive
}

// Snapshot assembles the unified telemetry document. Safe to call
// concurrently with running operations; a nil Telemetry yields an empty
// snapshot.
func (t *Telemetry) Snapshot() Snapshot {
	snap := Snapshot{Counters: map[string]int64{}}
	if t == nil {
		return snap
	}
	snap.Counters = t.counters.Snapshot()
	snap.SpansRecorded = t.tracer.ring.appended()
	for _, d := range t.Trees() {
		if d.Err != "" {
			snap.FailedOps++
		}
	}
	t.mu.Lock()
	if t.workload != nil {
		ws := *t.workload
		snap.Workload = &ws
	}
	t.mu.Unlock()

	ops, nodes := t.tracer.reg.rollups()
	for node, agg := range nodes {
		snap.Nodes = append(snap.Nodes, NodeSummary{Node: node, Count: agg.count, Errors: agg.errors, Bytes: agg.bytes})
	}

	const ms = 1e6 // ns per ms
	for kind, m := range ops {
		snap.Ops = append(snap.Ops, OpSummary{
			Kind:   kind,
			Count:  m.count,
			Errors: m.errors,
			Bytes:  m.bytes,
			SimSec: m.simSec,
			MeanMs: m.lat.Mean() / ms,
			P50Ms:  float64(m.lat.Quantile(0.50)) / ms,
			P95Ms:  float64(m.lat.Quantile(0.95)) / ms,
			P99Ms:  float64(m.lat.Quantile(0.99)) / ms,
		})
	}
	sort.Slice(snap.Ops, func(i, j int) bool { return snap.Ops[i].Kind < snap.Ops[j].Kind })
	sort.Slice(snap.Nodes, func(i, j int) bool { return snap.Nodes[i].Node < snap.Nodes[j].Node })
	return snap
}

// Op looks up one kind's summary.
func (s Snapshot) Op(kind string) (OpSummary, bool) {
	for _, op := range s.Ops {
		if op.Kind == kind {
			return op, true
		}
	}
	return OpSummary{}, false
}

// JSON renders the snapshot as an indented JSON document.
func (s Snapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Sprintf("{%q:%q}", "error", err.Error())
	}
	return string(b)
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format — a flat, scrapeable mirror of the JSON document.
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	b.WriteString("# TYPE squirrel_op_total counter\n")
	for _, op := range s.Ops {
		fmt.Fprintf(&b, "squirrel_op_total{kind=%q} %d\n", op.Kind, op.Count)
	}
	b.WriteString("# TYPE squirrel_op_errors_total counter\n")
	for _, op := range s.Ops {
		fmt.Fprintf(&b, "squirrel_op_errors_total{kind=%q} %d\n", op.Kind, op.Errors)
	}
	b.WriteString("# TYPE squirrel_op_bytes_total counter\n")
	for _, op := range s.Ops {
		fmt.Fprintf(&b, "squirrel_op_bytes_total{kind=%q} %d\n", op.Kind, op.Bytes)
	}
	b.WriteString("# TYPE squirrel_op_sim_seconds_total counter\n")
	for _, op := range s.Ops {
		fmt.Fprintf(&b, "squirrel_op_sim_seconds_total{kind=%q} %g\n", op.Kind, op.SimSec)
	}
	b.WriteString("# TYPE squirrel_op_latency_ms summary\n")
	for _, op := range s.Ops {
		fmt.Fprintf(&b, "squirrel_op_latency_ms{kind=%q,quantile=\"0.5\"} %g\n", op.Kind, op.P50Ms)
		fmt.Fprintf(&b, "squirrel_op_latency_ms{kind=%q,quantile=\"0.95\"} %g\n", op.Kind, op.P95Ms)
		fmt.Fprintf(&b, "squirrel_op_latency_ms{kind=%q,quantile=\"0.99\"} %g\n", op.Kind, op.P99Ms)
	}
	b.WriteString("# TYPE squirrel_node_ops_total counter\n")
	for _, n := range s.Nodes {
		fmt.Fprintf(&b, "squirrel_node_ops_total{node=%q} %d\n", n.Node, n.Count)
	}
	b.WriteString("# TYPE squirrel_node_bytes_total counter\n")
	for _, n := range s.Nodes {
		fmt.Fprintf(&b, "squirrel_node_bytes_total{node=%q} %d\n", n.Node, n.Bytes)
	}
	if w := s.Workload; w != nil {
		b.WriteString("# TYPE squirrel_workload gauge\n")
		fmt.Fprintf(&b, "squirrel_workload_boots{arrivals=%q} %d\n", w.Arrivals, w.Boots)
		fmt.Fprintf(&b, "squirrel_workload_shed{arrivals=%q} %d\n", w.Arrivals, w.Shed)
		fmt.Fprintf(&b, "squirrel_workload_peer_hits{arrivals=%q} %d\n", w.Arrivals, w.PeerHits)
		fmt.Fprintf(&b, "squirrel_workload_boot_latency_ms{arrivals=%q,quantile=\"0.5\"} %g\n", w.Arrivals, w.P50Ms)
		fmt.Fprintf(&b, "squirrel_workload_boot_latency_ms{arrivals=%q,quantile=\"0.99\"} %g\n", w.Arrivals, w.P99Ms)
		fmt.Fprintf(&b, "squirrel_workload_boot_latency_ms{arrivals=%q,quantile=\"0.999\"} %g\n", w.Arrivals, w.P999Ms)
	}
	b.WriteString("# TYPE squirrel_counter gauge\n")
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "squirrel_counter{name=%q} %d\n", n, s.Counters[n])
	}
	return b.String()
}
