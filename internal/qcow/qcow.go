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
		ci := off / o.cluster
		cOff := off % o.cluster
		n := int64(len(p))
		if rem := o.cluster - cOff; n > rem {
			n = rem
		}
		if rem := o.size - off; n > rem {
			n = rem
		}
		data, loan, err := o.clusterFor(ci)
		if err != nil {
			return total, err
		}
		copy(p[:n], data[cOff:cOff+n])
		if loan != nil {
			clusterBufs.Put(loan)
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

// clusterFor returns cluster ci's payload, fetching from backing on miss.
// A cluster the overlay holds (cached by copy-on-read) comes with a nil
// loan; one fetched without copy-on-read is only lent — loan is its
// pooled buffer, which the caller Puts back into clusterBufs once it has
// read data.
func (o *Overlay) clusterFor(ci int64) (data []byte, loan *[]byte, err error) {
	o.mu.RLock()
	data, ok := o.clusters[ci]
	o.mu.RUnlock()
	if ok {
		return data, nil, nil
	}
	bp, err := o.fetchCluster(ci)
	if err != nil {
		return nil, nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.BackingReads += int64(len(*bp))
	if !o.cor {
		return *bp, bp, nil
	}
	// Copy-on-read: the fetched cluster becomes part of the cache.
	if dup, ok := o.clusters[ci]; ok {
		clusterBufs.Put(bp)
		return dup, nil, nil // raced with another reader; keep the first copy
	}
	o.clusters[ci] = *bp
	return *bp, nil, nil
}

// clusterBufs recycles cluster buffers between fetches, across overlays:
// a boot's CoW overlay fetches a whole cluster per read and keeps none
// of them, which without reuse is the boot path's largest source of
// garbage.
var clusterBufs sync.Pool // *[]byte

// fetchCluster reads one whole cluster from backing (short at EOF) into
// a buffer from clusterBufs. The buffer has whole-cluster capacity even
// for the short tail, so every buffer is reusable; its owner either keeps
// it for good or Puts it back.
func (o *Overlay) fetchCluster(ci int64) (*[]byte, error) {
	start := ci * o.cluster
	l := o.cluster
	if start+l > o.size {
		l = o.size - start
	}
	bp, _ := clusterBufs.Get().(*[]byte)
	if bp == nil || int64(cap(*bp)) < o.cluster {
		buf := make([]byte, o.cluster)
		bp = &buf
	}
	*bp = (*bp)[:l]
	n, err := o.backing.ReadAt(*bp, start)
	if err != nil && err != io.EOF {
		clusterBufs.Put(bp)
		return nil, fmt.Errorf("qcow: backing read cluster %d: %w", ci, err)
	}
	if int64(n) != l {
		clusterBufs.Put(bp)
		return nil, fmt.Errorf("qcow: short backing read: %d of %d", n, l)
	}
	return bp, nil
}
