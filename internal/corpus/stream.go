package corpus

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/block"
)

// Generator reads image content. It is cheap to create and carries a
// one-cell cache plus scratch buffers, so it is not safe for concurrent
// use; create one per goroutine.
type Generator struct {
	img     *Image
	cell    []byte // cached generated cell
	cellKey struct {
		pool poolID
		idx  int64
	}
	scratch []byte
}

// NewGenerator returns a content generator for img.
func NewGenerator(img *Image) *Generator {
	g := &Generator{img: img, cell: make([]byte, cellSize), scratch: make([]byte, 0, 2048)}
	g.cellKey.idx = -1
	return g
}

// findSegment locates the segment containing file offset off.
func (g *Generator) findSegment(off int64) int {
	segs := g.img.recipe
	return sort.Search(len(segs), func(i int) bool {
		return segs[i].off+segs[i].length > off
	})
}

// ReadAt fills p with image content starting at off. Reads past the end
// of the image return io.EOF after the available bytes.
func (g *Generator) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("corpus: negative offset %d", off)
	}
	total := 0
	for len(p) > 0 && off < g.img.rawSize {
		i := g.findSegment(off)
		seg := &g.img.recipe[i]
		segRel := off - seg.off
		n := int64(len(p))
		if rem := seg.length - segRel; n > rem {
			n = rem
		}
		if seg.kind == segZero {
			for j := int64(0); j < n; j++ {
				p[j] = 0
			}
		} else {
			g.fillPoolRange(seg, p[:n], segRel)
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

// fillPoolRange fills buf with seg's pool bytes for segment-relative
// range [segRel, segRel+len(buf)), then applies the image's edit overlay.
func (g *Generator) fillPoolRange(seg *segment, buf []byte, segRel int64) {
	poolOff := seg.poolOff + segRel
	filled := 0
	for filled < len(buf) {
		cellIdx := (poolOff + int64(filled)) / cellSize
		cellRel := (poolOff + int64(filled)) % cellSize
		if g.cellKey.pool != seg.pool || g.cellKey.idx != cellIdx {
			fillCell(seg.pool, cellIdx, g.cell, &g.scratch)
			g.cellKey.pool = seg.pool
			g.cellKey.idx = cellIdx
		}
		filled += copy(buf[filled:], g.cell[cellRel:])
	}
	seg.applyEdits(buf, segRel)
}

// ReadAtFunc returns a goroutine-safe ReadAt over the image's raw
// content: each concurrent caller draws its own Generator from a pool.
// This is the content function to hand long-lived shared readers like
// the PFS, which serves simultaneous boots of the same image.
func (im *Image) ReadAtFunc() func(p []byte, off int64) (int, error) {
	pool := sync.Pool{New: func() any { return NewGenerator(im) }}
	return func(p []byte, off int64) (int, error) {
		g := pool.Get().(*Generator)
		n, err := g.ReadAt(p, off)
		pool.Put(g)
		return n, err
	}
}

// Reader returns an io.Reader over the image's full raw content
// (including the sparse tail), suitable for zvol.WriteObject.
func (im *Image) Reader() io.Reader {
	return &imageReader{g: NewGenerator(im), limit: im.rawSize}
}

// NonzeroReader returns a reader over only the nonzero prefix of the
// image (everything before the sparse tail).
func (im *Image) NonzeroReader() io.Reader {
	return &imageReader{g: NewGenerator(im), limit: im.nonzero}
}

type imageReader struct {
	g     *Generator
	off   int64
	limit int64
}

func (r *imageReader) Read(p []byte) (int, error) {
	if r.off >= r.limit {
		return 0, io.EOF
	}
	if max := r.limit - r.off; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := r.g.ReadAt(p, r.off)
	r.off += int64(n)
	if err == io.EOF && r.off < r.limit {
		err = fmt.Errorf("corpus: short image %s at %d", r.g.img.ID, r.off)
	}
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// CacheReader returns a reader over the image's boot working set laid
// out as its cache object (see Layout).
func (im *Image) CacheReader() io.Reader {
	return &cacheReader{g: NewGenerator(im), exts: im.layout.Ext}
}

type cacheReader struct {
	g    *Generator
	exts []Extent
	i    int
	rel  int64
}

func (r *cacheReader) Read(p []byte) (int, error) {
	for r.i < len(r.exts) {
		e := r.exts[r.i]
		if r.rel >= e.Len {
			r.i++
			r.rel = 0
			continue
		}
		n := int64(len(p))
		if rem := e.Len - r.rel; n > rem {
			n = rem
		}
		read, err := r.g.ReadAt(p[:n], e.Off+r.rel)
		r.rel += int64(read)
		if err != nil && err != io.EOF {
			return read, err
		}
		return read, nil
	}
	return 0, io.EOF
}

// Extent is an (offset, length) pair within an image.
type Extent struct {
	Off, Len int64
}

// Layout is an image's cache object: its boot working set's extents, in
// offset order, concatenated — the compact file a copy-on-read first
// boot leaves behind (the paper's "cache chained to base", Fig 7).
// Extent i is image range [Ext[i].Off, +Ext[i].Len) and cache-object
// range [Base[i], +Ext[i].Len); Size is the object's length. The layout
// is the same on every replica, so it is the one map between image
// offsets and cache-object offsets. It is built once per image and is
// read-only: no caller may write to its slices.
type Layout struct {
	Ext  []Extent
	Base []int64
	Size int64
}

// NewLayout lays out exts, which must be non-empty, disjoint and sorted
// by offset, as one cache object. The layout keeps exts.
func NewLayout(exts []Extent) Layout {
	l := Layout{Ext: exts, Base: make([]int64, len(exts))}
	for i, e := range exts {
		l.Base[i] = l.Size
		l.Size += e.Len
	}
	return l
}

// Find returns the index of the first extent ending after image offset
// off: len(l.Ext) when off lies past every extent, and an extent that
// starts after off when off lies in the gap before it.
func (l *Layout) Find(off int64) int {
	return sort.Search(len(l.Ext), func(i int) bool { return l.Ext[i].Off+l.Ext[i].Len > off })
}

// FindBase returns the index of the extent holding cache-object offset
// base, or len(l.Ext) when base lies at or past l.Size.
func (l *Layout) FindBase(base int64) int {
	return sort.Search(len(l.Base), func(i int) bool { return l.Base[i]+l.Ext[i].Len > base })
}

// Layout returns the image's cache-object layout, read-only.
func (im *Image) Layout() *Layout { return &im.layout }

// BootTrace returns what a boot reads: every cache extent once, whole,
// in offset order — the layout's extents, read-only. The module's own
// boots read im.Layout(); BootTrace stays because the benchmark module
// (bench/) calls it.
func (im *Image) BootTrace() []Extent { return im.layout.Ext }

// CacheExtentsSorted returns the boot working set's extents in offset
// order (cache layout order): the layout's extents, read-only and
// already sorted. The module's own callers read im.Layout();
// CacheExtentsSorted stays because the benchmark module (bench/) calls
// it.
func (im *Image) CacheExtentsSorted() []Extent { return im.layout.Ext }

// Blocks iterates the image's full content in blocks of size bs, calling
// fn(index, data, zero). Blocks entirely inside zero segments are
// reported with nil data and zero=true without generating bytes, which
// makes sweeping the 11.7× sparse tail nearly free. fn's data slice is
// reused across calls.
func (im *Image) Blocks(bs block.Size, fn func(idx int64, data []byte, zero bool) error) error {
	g := NewGenerator(im)
	buf := make([]byte, bs)
	n := block.CountBlocks(im.rawSize, bs)
	for idx := int64(0); idx < n; idx++ {
		off := idx * int64(bs)
		l := int64(bs)
		if off+l > im.rawSize {
			l = im.rawSize - off
		}
		if im.rangeIsZero(off, l) {
			if err := fn(idx, nil, true); err != nil {
				return err
			}
			continue
		}
		if _, err := g.ReadAt(buf[:l], off); err != nil && err != io.EOF {
			return err
		}
		if err := fn(idx, buf[:l], block.IsZero(buf[:l])); err != nil {
			return err
		}
	}
	return nil
}

// CacheBlocks iterates the image's boot working set (cache layout order)
// in blocks of size bs.
func (im *Image) CacheBlocks(bs block.Size, fn func(idx int64, data []byte, zero bool) error) error {
	r := im.CacheReader()
	ch, err := block.NewChunker(r, bs)
	if err != nil {
		return err
	}
	return ch.ForEach(func(c block.Chunk) error {
		return fn(c.Index, c.Data, c.Zero)
	})
}

// rangeIsZero reports whether [off, off+l) lies entirely within zero
// segments.
func (im *Image) rangeIsZero(off, l int64) bool {
	segs := im.recipe
	i := sort.Search(len(segs), func(i int) bool {
		return segs[i].off+segs[i].length > off
	})
	for ; i < len(segs) && l > 0; i++ {
		if segs[i].kind != segZero {
			return false
		}
		covered := segs[i].off + segs[i].length - off
		off += covered
		l -= covered
	}
	return l <= 0
}
