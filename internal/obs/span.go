package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one operation (or sub-operation) in flight or completed. A
// span carries its op kind, the node and image it concerns, wall-clock
// start/end, accumulated byte count, simulated network/disk time (the
// model's seconds, distinct from wall time), fault/retry annotations,
// an error state, and child spans.
//
// A span only records. Spans are built by the goroutine running the
// operation; the small internal mutex makes cross-goroutine building
// safe too. A nil *Span no-ops every method and hands out nil children,
// so a disabled tracer costs instrumented code only nil checks. Every
// reader works on a TreeDump (DumpTree, Telemetry.Trees).
//
// A span belongs to whoever holds it: the ring drops a tree it evicts
// and the garbage collector frees it once no caller holds a handle, so
// a held span, once finished, dumps the same for as long as anyone
// holds it.
type Span struct {
	tr     *Tracer
	parent *Span
	seq    uint64 // ring slot ordering, assigned at append time
	id     uint64 // process-unique span ID (wire trace context)

	// Remote trace linkage: the trace/parent span IDs carried in by a
	// wire request frame (zero for locally rooted operations).
	rtrace  uint64
	rparent uint64

	kind  string
	start time.Time

	mu       sync.Mutex
	node     string
	image    string
	end      time.Time
	bytes    int64
	simSec   float64
	err      string
	annots   map[string]int64
	children []*Span
	finished bool
}

// spanID hands out process-unique span IDs.
var spanID atomic.Uint64

func newSpan(tr *Tracer, parent *Span, kind, node, image string) *Span {
	return &Span{
		tr: tr, parent: parent, id: spanID.Add(1),
		kind: kind, start: time.Now(), node: node, image: image,
	}
}

// SpanID returns the span's process-unique ID — the value the wire
// trace context carries. 0 for a nil span.
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Child starts a sub-operation span under s. Nil-safe: a nil span hands
// out a nil child.
func (s *Span) Child(kind, node, image string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(s.tr, s, kind, node, image)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetNode records (or revises) the node the span concerns — peer
// fetches learn their source mid-operation.
func (s *Span) SetNode(node string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.node = node
	s.mu.Unlock()
}

// AddBytes accumulates bytes moved or touched by the operation.
func (s *Span) AddBytes(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.bytes += n
	s.mu.Unlock()
}

// AddSim accumulates simulated (modelled) seconds — fabric transfer
// time, simulated backoff — as opposed to wall time.
func (s *Span) AddSim(sec float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.simSec += sec
	s.mu.Unlock()
}

// Annotate adds delta to a named annotation (fault kinds, retry counts,
// byte-provenance splits).
func (s *Span) Annotate(key string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.annots == nil {
		s.annots = make(map[string]int64, 4)
	}
	s.annots[key] += delta
	s.mu.Unlock()
}

// Fail marks the span's error state. A nil error is ignored, so call
// sites can pass their return error unconditionally.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// Finish completes the span: it stamps the end time, feeds the
// per-kind/per-node aggregates, and — for a root span — appends the
// whole operation tree to the tracer's ring. Finish is idempotent;
// second and later calls are dropped.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.end = time.Now()
	kind, node := s.kind, s.node
	bytes, simSec, failed := s.bytes, s.simSec, s.err != ""
	wall := s.end.Sub(s.start)
	s.mu.Unlock()
	if s.tr == nil {
		return
	}
	s.tr.reg.record(kind, node, bytes, simSec, wall, failed)
	if s.parent == nil {
		s.tr.ring.add(s)
	}
}
