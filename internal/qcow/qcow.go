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

// Overlay is a read-through (and optionally copy-on-read) image over a
// backing store. It keeps copied-on-read clusters in memory, which
// stands in for the compute node's local cache file.
type Overlay struct {
	mu       sync.RWMutex
	cluster  int64
	size     int64
	backing  Backend
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
	return &Overlay{
		cluster:  clusterSize,
		size:     backing.Size(),
		backing:  backing,
		clusters: make(map[int64][]byte),
		cor:      cor,
	}, nil
}

// Size implements Backend.
func (o *Overlay) Size() int64 { return o.size }

// ReadAt implements io.ReaderAt. Reads are resolved cluster by cluster:
// local clusters are served directly; missing ones are fetched whole from
// the backing store (and retained when copy-on-read is enabled).
func (o *Overlay) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("qcow: negative offset")
	}
	total := 0
	for len(p) > 0 && off < o.size {
		ci, cOff := off/o.cluster, off%o.cluster
		n := min(int64(len(p)), o.cluster-cOff, o.size-off)
		if err := o.readCluster(p[:n], ci, cOff); err != nil {
			return total, err
		}
		p = p[n:]
		off += n
		total += int(n)
	}
	if len(p) > 0 {
		return total, io.EOF
	}
	return total, nil
}

// readCluster fills p with cluster ci's bytes from cOff on. A cluster the
// overlay holds (cached by copy-on-read) is copied out. A missing one is
// fetched whole: straight into p when p is the whole cluster and
// copy-on-read is off — the backing store sees the very read a staged
// fetch would make, and the bytes land once, in the caller's buffer —
// otherwise into a buffer from clusterBufs, which copy-on-read keeps and
// a plain overlay recycles once p has its part.
func (o *Overlay) readCluster(p []byte, ci, cOff int64) error {
	o.mu.RLock()
	data, ok := o.clusters[ci]
	o.mu.RUnlock()
	if ok {
		copy(p, data[cOff:])
		return nil
	}
	l := min(o.cluster, o.size-ci*o.cluster) // short at EOF
	if !o.cor && int64(len(p)) == l {
		return o.fetch(p, ci)
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
	copy(p, buf[cOff:])
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
// a plain overlay fetches a whole cluster for every read that covers it
// only in part and keeps none of them, which without reuse is the boot
// path's largest source of garbage.
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
	o.mu.Lock()
	o.BackingReads += int64(n)
	o.mu.Unlock()
	return nil
}
