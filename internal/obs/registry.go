package obs

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// Tracer hands out spans and owns where they land: the per-kind and
// per-node aggregates (registry) and the completed-operation ring.
// A nil *Tracer hands out nil spans, so disabled tracing is free.
type Tracer struct {
	reg  *Registry
	ring *ring
}

// StartOp opens a root span for one operation. Nil-safe.
func (tr *Tracer) StartOp(kind, node, image string) *Span {
	if tr == nil {
		return nil
	}
	return newSpan(tr, nil, kind, node, image)
}

// StartRemoteOp opens a root span for an operation that continues a
// trace begun in another process: the wire trace context's
// (traceID, parentSpanID) pair is recorded on the span so the remote
// caller can later fetch this tree and graft it under its own span.
func (tr *Tracer) StartRemoteOp(kind, node, image string, traceID, parentID uint64) *Span {
	if tr == nil {
		return nil
	}
	s := newSpan(tr, nil, kind, node, image)
	s.rtrace, s.rparent = traceID, parentID
	return s
}

// Op opens a span under parent when the caller was reached as a
// sub-operation (a scrub inside a restart, a sync inside a boot heal),
// or a fresh root span when called directly. Works with a nil tracer,
// a nil parent, or both.
func (tr *Tracer) Op(parent *Span, kind, node, image string) *Span {
	if parent != nil {
		return parent.Child(kind, node, image)
	}
	return tr.StartOp(kind, node, image)
}

// Registry aggregates every finished span — roots and children alike —
// into per-op-kind rollups (count, errors, bytes, simulated seconds,
// wall-latency histogram) and per-node rollups. This is the "one
// registry" the telemetry snapshot renders. A span's whole contribution
// lands under one lock section, so a snapshot can never show one span
// half-applied.
type Registry struct {
	mu    sync.Mutex
	ops   map[string]*opAgg
	nodes map[string]*nodeAgg
}

type opAgg struct {
	count  int64
	errors int64
	bytes  int64
	simSec float64
	lat    metrics.Histogram // wall nanoseconds
}

type nodeAgg struct {
	count  int64
	errors int64
	bytes  int64
}

func newRegistry() *Registry {
	return &Registry{ops: make(map[string]*opAgg), nodes: make(map[string]*nodeAgg)}
}

// record folds one finished span into the rollups.
func (r *Registry) record(kind, node string, bytes int64, simSec float64, wall time.Duration, failed bool) {
	r.mu.Lock()
	op := r.ops[kind]
	if op == nil {
		op = &opAgg{}
		r.ops[kind] = op
	}
	op.count++
	op.bytes += bytes
	op.simSec += simSec
	if failed {
		op.errors++
	}
	op.lat.Observe(wall.Nanoseconds())
	if node != "" {
		na := r.nodes[node]
		if na == nil {
			na = &nodeAgg{}
			r.nodes[node] = na
		}
		na.count++
		na.bytes += bytes
		if failed {
			na.errors++
		}
	}
	r.mu.Unlock()
}

// rollups copies the per-op and per-node rollups, latency histograms
// included, under the lock, so no span is ever seen half-applied.
func (r *Registry) rollups() (map[string]opAgg, map[string]nodeAgg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := make(map[string]opAgg, len(r.ops))
	for kind, agg := range r.ops {
		ops[kind] = *agg
	}
	nodes := make(map[string]nodeAgg, len(r.nodes))
	for node, agg := range r.nodes {
		nodes[node] = *agg
	}
	return ops, nodes
}
