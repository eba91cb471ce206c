package obs

import (
	"fmt"
	"sort"
	"strings"
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
// Spans are built by the goroutine running the operation; the small
// internal mutex makes cross-goroutine building safe too. A nil *Span
// no-ops every method and hands out nil children, so a disabled tracer
// costs instrumented code only nil checks.
//
// A span belongs to whoever holds it: the ring drops a tree it evicts
// and the garbage collector frees it once no caller holds a handle, so
// a finished span reads the same for as long as anyone can read it.
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

// RemoteTrace returns the (traceID, parentSpanID) pair a wire request
// stamped on this span, or zeros for locally rooted operations.
func (s *Span) RemoteTrace() (traceID, parentID uint64) {
	if s == nil {
		return 0, 0
	}
	return s.rtrace, s.rparent
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

// --- accessors (all nil-safe; used by export, experiments, and tests) ---

// Kind returns the op kind.
func (s *Span) Kind() string {
	if s == nil {
		return ""
	}
	return s.kind
}

// Node returns the node the span concerns ("" if none).
func (s *Span) Node() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node
}

// Image returns the image the span concerns ("" if none).
func (s *Span) Image() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.image
}

// Bytes returns the accumulated byte count.
func (s *Span) Bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// SimSec returns the accumulated simulated seconds.
func (s *Span) SimSec() float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simSec
}

// Err returns the span's error state ("" when the operation succeeded).
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Annotation returns one named annotation (0 if absent).
func (s *Span) Annotation(key string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.annots[key]
}

// Annotations copies the span's annotation map.
func (s *Span) Annotations() map[string]int64 {
	out := make(map[string]int64)
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.annots {
		out[k] = v
	}
	return out
}

// Children copies the span's child list in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// ChildrenOf returns the span's direct children of one kind.
func (s *Span) ChildrenOf(kind string) []*Span {
	var out []*Span
	for _, c := range s.Children() {
		if c.Kind() == kind {
			out = append(out, c)
		}
	}
	return out
}

// walk visits s and its descendants depth-first in creation order until
// visit returns false.
func (s *Span) walk(visit func(*Span) bool) bool {
	if s == nil {
		return true
	}
	if !visit(s) {
		return false
	}
	for _, c := range s.Children() {
		if !c.walk(visit) {
			return false
		}
	}
	return true
}

// Wall returns the wall-clock duration (0 for an unfinished span).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// RenderTree renders a completed span tree as indented text, one span
// per line — the `squirrelctl -trace` dump.
func RenderTree(s *Span) string {
	var b strings.Builder
	renderInto(&b, s, 0)
	return b.String()
}

func renderInto(b *strings.Builder, s *Span, depth int) {
	if s == nil {
		return
	}
	renderLine(b, depth, s.Kind(), s.Node(), s.Image(), s.Wall(), s.SimSec(), s.Bytes(), s.Annotations(), s.Err())
	for _, c := range s.Children() {
		renderInto(b, c, depth+1)
	}
}

// renderLine is the shared one-span line format used by RenderTree and
// RenderDump, so local and wire-merged trace dumps are line-compatible.
func renderLine(b *strings.Builder, depth int, kind, node, image string, wall time.Duration, sim float64, bytes int64, annots map[string]int64, errText string) {
	fmt.Fprintf(b, "%s%s", strings.Repeat("  ", depth), kind)
	if node != "" {
		fmt.Fprintf(b, " node=%s", node)
	}
	if image != "" {
		fmt.Fprintf(b, " image=%s", image)
	}
	fmt.Fprintf(b, " wall=%s", wall.Round(time.Microsecond))
	if sim > 0 {
		fmt.Fprintf(b, " sim=%.4fs", sim)
	}
	if bytes > 0 {
		fmt.Fprintf(b, " bytes=%d", bytes)
	}
	keys := make([]string, 0, len(annots))
	for k := range annots {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, " %s=%d", k, annots[k])
	}
	if errText != "" {
		fmt.Fprintf(b, " ERR=%q", errText)
	}
	b.WriteString("\n")
}
