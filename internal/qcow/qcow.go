// Package qcow implements the image chain of Figure 1 in the paper: a
// cluster-granular read-through overlay (the QCOW2 role), a copy-on-read
// VMI cache layer in the middle, and a pluggable backing store at the
// bottom (the base VMI).
//
//	Original:    VM → CoW → base
//	Cold cache:  VM → CoW → cache (CoR, filling) → base
//	Warm cache:  VM → CoW → cache (complete)      [base never touched]
//
// No replayed VM writes, so the overlay has no write path: the CoW layer
// is the read-through half of QCOW2, which fetches whole clusters from
// its backing store (QCOW2's default cluster size is 64 KB). That is the
// mechanism behind both the paper's "free prefetching" boot speedup
// (§4.2.3) and the 128 KB cVolume anomaly in Fig 11.
package qcow

import (
	"fmt"
	"io"
	"sync"
)

// DefaultClusterSize is QCOW2's default (64 KB = 128 sectors).
const DefaultClusterSize = 64 * 1024

// Backend is anything an overlay can be chained onto.
type Backend interface {
	io.ReaderAt
	Size() int64
}

// A Lender is a Backend that can lend its bytes instead of copying them.
// Lend reads [off, off+n) exactly as ReadAt would — every byte checked and
// accounted — and runs w.Fn, in order, on the pieces of it that fall
// inside w, which lies within [off, off+n). The pieces are lent: w.Fn
// must neither write them nor keep them past its return. Lend returns an
// error, io.EOF included, when it could not serve all n bytes.
type Lender interface {
	Backend
	Lend(off, n int64, w Window) error
}

// A Window is the part [From, To) of a lent byte stream that a reader
// wants. An overlay fetches whole clusters from below but hands its
// reader only the bytes it asked for: the window trims each lent piece.
type Window struct {
	From, To int64
	Fn       func(p []byte)
}

// Put runs w.Fn on the part of p inside the window, where p holds the
// stream's bytes [at, at+len(p)), and returns at+len(p), where the next
// piece starts.
func (w Window) Put(at int64, p []byte) int64 {
	lo, hi := max(w.From-at, 0), min(w.To-at, int64(len(p)))
	if lo < hi {
		w.Fn(p[lo:hi])
	}
	return at + int64(len(p))
}

// Overlay is a read-through (and optionally copy-on-read) image over a
// backing store. It keeps copied-on-read clusters in memory, which
// stands in for the compute node's local cache file.
type Overlay struct {
	mu       sync.RWMutex
	cluster  int64
	size     int64
	backing  Backend
	lender   Lender           // backing, when it can lend; nil otherwise
	clusters map[int64][]byte // cluster index → cluster payload
	cor      bool             // copy-on-read: cache clusters fetched from backing

	// BackingReads counts the bytes fetched from the backing store (the
	// network, for a PFS-mounted base): the paper's transfer accounting.
	BackingReads int64
}

// NewOverlay returns an overlay over backing. cor enables copy-on-read
// (the VMI cache behaviour). clusterSize must be positive; the backing
// size is inherited.
func NewOverlay(backing Backend, clusterSize int64, cor bool) (*Overlay, error) {
	if clusterSize <= 0 {
		return nil, fmt.Errorf("qcow: cluster size %d", clusterSize)
	}
	if backing == nil {
		return nil, fmt.Errorf("qcow: nil backing")
	}
	lender, _ := backing.(Lender)
	o := &Overlay{lender: lender, cluster: clusterSize, size: backing.Size(), backing: backing, cor: cor}
	if cor {
		o.clusters = make(map[int64][]byte) // without copy-on-read it stays nil, never written
	}
	return o, nil
}

// Size implements Backend.
func (o *Overlay) Size() int64 { return o.size }

// ReadAt implements io.ReaderAt as a copy out of the bytes Visit lends.
func (o *Overlay) ReadAt(p []byte, off int64) (int, error) {
	n := 0
	err := o.Visit(off, int64(len(p)), func(b []byte) { n += copy(p[n:], b) })
	return n, err
}

// Visit runs fn on bytes [off, off+n) of the image, lent in order. Reads
// are resolved cluster by cluster: a cluster the overlay holds (cached by
// copy-on-read) is lent directly; a missing one is fetched whole from the
// backing store (and retained when copy-on-read is enabled), and only
// the part the read asked for reaches fn. A Lender backing lends the
// cluster through, copying nothing; one that can only ReadAt fetches into
// a buffer from clusterBufs, which copy-on-read keeps and a plain overlay
// recycles once fn has run. fn must neither write the bytes nor keep
// them past its return. A read past the image's end lends what there is
// and returns io.EOF.
func (o *Overlay) Visit(off, n int64, fn func(p []byte)) error {
	if off < 0 {
		return fmt.Errorf("qcow: negative offset")
	}
	for n > 0 && off < o.size {
		k := min(n, o.cluster-off%o.cluster, o.size-off)
		if err := o.visitCluster(off/o.cluster, Window{From: off, To: off + k, Fn: fn}); err != nil {
			return err
		}
		off, n = off+k, n-k
	}
	if n > 0 {
		return io.EOF
	}
	return nil
}

// visitCluster lends w its part of cluster ci.
func (o *Overlay) visitCluster(ci int64, w Window) error {
	start := ci * o.cluster
	o.mu.RLock()
	data, ok := o.clusters[ci]
	o.mu.RUnlock()
	if ok {
		w.Put(start, data)
		return nil
	}
	l := min(o.cluster, o.size-start) // short at EOF
	if o.lender != nil && !o.cor {
		if err := o.lender.Lend(start, l, w); err != nil {
			return fmt.Errorf("qcow: backing read cluster %d: %w", ci, err)
		}
		o.count(l)
		return nil
	}
	// Every buffer has whole-cluster capacity, even for the short tail, so
	// every one is reusable.
	bp, _ := clusterBufs.Get().(*[]byte)
	if bp == nil || int64(cap(*bp)) < o.cluster {
		buf := make([]byte, o.cluster)
		bp = &buf
	}
	buf := (*bp)[:l]
	if err := o.fetch(buf, ci); err != nil {
		clusterBufs.Put(bp)
		return err
	}
	w.Put(start, buf)
	if !o.cor {
		clusterBufs.Put(bp)
		return nil
	}
	// Copy-on-read: the fetched cluster becomes part of the cache.
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.clusters[ci]; ok {
		clusterBufs.Put(bp) // raced with another reader; keep the first copy
		return nil
	}
	o.clusters[ci] = buf
	return nil
}

// clusterBufs recycles cluster buffers between fetches, across overlays:
// a plain overlay over a backing that can only ReadAt fetches a whole
// cluster for every read and keeps none of them, which without reuse
// would be its largest source of garbage.
var clusterBufs sync.Pool // *[]byte

// fetch reads cluster ci from backing into buf, which is exactly the
// cluster's length, and counts the bytes in BackingReads. On error buf's
// contents are unspecified.
func (o *Overlay) fetch(buf []byte, ci int64) error {
	n, err := o.backing.ReadAt(buf, ci*o.cluster)
	if err != nil && err != io.EOF {
		return fmt.Errorf("qcow: backing read cluster %d: %w", ci, err)
	}
	if n != len(buf) {
		return fmt.Errorf("qcow: short backing read: %d of %d", n, len(buf))
	}
	o.count(int64(n))
	return nil
}

// count adds n fetched bytes to BackingReads.
func (o *Overlay) count(n int64) {
	o.mu.Lock()
	o.BackingReads += n
	o.mu.Unlock()
}
