package obs

import (
	"sort"
	"sync"
)

// ring is the bounded buffer of completed root spans, in the
// scatter-hoarding spirit: appenders claim the next slot and overwrite
// whatever operation aged out; the evicted tree is simply dropped. The
// write section is a few stores, and root finishes are rare next to the
// aggregation their children take.
type ring struct {
	mu    sync.RWMutex
	slots []*Span
	next  uint64
}

func newRing(size int) *ring {
	return &ring{slots: make([]*Span, size)}
}

// add appends a completed root span, claiming the next slot. The
// claimed sequence number is stamped on the span so snapshots can order
// survivors oldest-first after wraparound.
func (r *ring) add(s *Span) {
	r.mu.Lock()
	s.seq = r.next
	r.next++
	r.slots[s.seq%uint64(len(r.slots))] = s
	r.mu.Unlock()
}

// appended reports how many root spans were ever added (not how many
// the ring still holds).
func (r *ring) appended() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.next
}

// snapshot collects the spans currently held, oldest first.
func (r *ring) snapshot() []*Span {
	r.mu.RLock()
	out := make([]*Span, 0, len(r.slots))
	for _, s := range r.slots {
		if s != nil {
			out = append(out, s)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}
