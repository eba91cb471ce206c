package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// TreeDump is the one read form of a span tree: a copy that no longer
// changes, whatever the operation it was taken from does next. Local
// readers get dumps from Telemetry.Trees; the daemon ships dumps of its
// dispatch trees to the control client, which grafts them under its own
// RPC spans by span ID and renders one tree spanning both processes.
// Start is wall-clock Unix nanoseconds and End is Start plus the span's
// monotonic duration; End is 0 for a span still in flight when dumped.
type TreeDump struct {
	ID     uint64           `json:"id"`
	Kind   string           `json:"kind"`
	Node   string           `json:"node,omitempty"`
	Image  string           `json:"image,omitempty"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns,omitempty"`
	Bytes  int64            `json:"bytes,omitempty"`
	SimSec float64          `json:"sim_sec,omitempty"`
	Err    string           `json:"err,omitempty"`
	Annots map[string]int64 `json:"annots,omitempty"`

	// RemoteTrace/RemoteParent carry the wire trace context stamped on
	// a dispatch root: the originating client's trace ID and the client
	// span the tree belongs under. Zero on locally rooted spans and on
	// children.
	RemoteTrace  uint64 `json:"remote_trace,omitempty"`
	RemoteParent uint64 `json:"remote_parent,omitempty"`

	Children []*TreeDump `json:"children,omitempty"`
}

// DumpTree copies a span tree, live or finished. Each node is copied
// under one acquisition of its lock, so a node never shows state from
// both sides of a concurrent Finish. Nil-safe: a nil span dumps to nil.
func DumpTree(s *Span) *TreeDump {
	if s == nil {
		return nil
	}
	d := &TreeDump{
		ID: s.id, Kind: s.kind, Start: s.start.UnixNano(),
		RemoteTrace: s.rtrace, RemoteParent: s.rparent,
	}
	s.mu.Lock()
	d.Node, d.Image = s.node, s.image
	d.Bytes, d.SimSec, d.Err = s.bytes, s.simSec, s.err
	if !s.end.IsZero() {
		d.End = d.Start + int64(s.end.Sub(s.start))
	}
	if len(s.annots) > 0 {
		d.Annots = make(map[string]int64, len(s.annots))
		for k, v := range s.annots {
			d.Annots[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, DumpTree(c))
	}
	return d
}

// Trees dumps the completed root operations the ring holds, oldest
// first.
func (t *Telemetry) Trees() []*TreeDump {
	if t == nil {
		return nil
	}
	roots := t.tracer.ring.snapshot()
	out := make([]*TreeDump, len(roots))
	for i, s := range roots {
		out[i] = DumpTree(s)
	}
	return out
}

// RemoteDumps collects dumps of every ring tree whose root was started
// by StartRemoteOp with the given trace ID, oldest first — the
// daemon-side halves of one client's trace.
func (t *Telemetry) RemoteDumps(traceID uint64) []*TreeDump {
	if t == nil || traceID == 0 {
		return nil
	}
	var out []*TreeDump
	for _, s := range t.tracer.ring.snapshot() {
		if s.rtrace == traceID {
			out = append(out, DumpTree(s))
		}
	}
	return out
}

// Wall returns the dump's wall-clock duration (0 while in flight).
func (d *TreeDump) Wall() time.Duration {
	if d == nil || d.End == 0 {
		return 0
	}
	return time.Duration(d.End - d.Start)
}

// Find returns the first dump in d's tree (depth-first, creation
// order) satisfying pred, or nil.
func (d *TreeDump) Find(pred func(*TreeDump) bool) *TreeDump {
	if d == nil {
		return nil
	}
	if pred(d) {
		return d
	}
	for _, c := range d.Children {
		if f := c.Find(pred); f != nil {
			return f
		}
	}
	return nil
}

// Slowest picks the operation `squirrelctl trace <kind>` shows, from
// anywhere inside trees: the first failed span of that kind (depth-first,
// trees in order) if any failed, otherwise the one with the longest wall
// duration, ties to the first. It returns that span and the tree that
// holds it, or nils when no span of the kind is there.
func Slowest(trees []*TreeDump, kind string) (tree, op *TreeDump) {
	for _, t := range trees {
		failed := t.Find(func(x *TreeDump) bool {
			if x.Kind != kind {
				return false
			}
			if x.Err != "" {
				return true
			}
			if op == nil || x.Wall() > op.Wall() {
				tree, op = t, x
			}
			return false
		})
		if failed != nil {
			return t, failed
		}
	}
	return tree, op
}

// Graft attaches remote to the dump in d's tree whose span ID matches
// remote's RemoteParent — the client span that issued the request the
// remote tree served. Reports whether a parent was found; an unmatched
// tree is left unattached so the caller can surface it separately.
func (d *TreeDump) Graft(remote *TreeDump) bool {
	if d == nil || remote == nil {
		return false
	}
	parent := d.Find(func(x *TreeDump) bool { return x.ID == remote.RemoteParent })
	if parent == nil {
		return false
	}
	parent.Children = append(parent.Children, remote)
	return true
}

// RenderDump renders a dump tree as indented text, one span per line —
// the `squirrelctl trace` output, local and wire-merged alike.
func RenderDump(d *TreeDump) string {
	var b strings.Builder
	renderInto(&b, d, 0)
	return b.String()
}

func renderInto(b *strings.Builder, d *TreeDump, depth int) {
	if d == nil {
		return
	}
	fmt.Fprintf(b, "%s%s", strings.Repeat("  ", depth), d.Kind)
	if d.Node != "" {
		fmt.Fprintf(b, " node=%s", d.Node)
	}
	if d.Image != "" {
		fmt.Fprintf(b, " image=%s", d.Image)
	}
	fmt.Fprintf(b, " wall=%s", d.Wall().Round(time.Microsecond))
	if d.SimSec > 0 {
		fmt.Fprintf(b, " sim=%.4fs", d.SimSec)
	}
	if d.Bytes > 0 {
		fmt.Fprintf(b, " bytes=%d", d.Bytes)
	}
	keys := make([]string, 0, len(d.Annots))
	for k := range d.Annots {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, " %s=%d", k, d.Annots[k])
	}
	if d.Err != "" {
		fmt.Fprintf(b, " ERR=%q", d.Err)
	}
	b.WriteString("\n")
	for _, c := range d.Children {
		renderInto(b, c, depth+1)
	}
}
