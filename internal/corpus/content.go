package corpus

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// ---------------------------------------------------------------------------
// Deterministic hashing / RNG primitives. Everything in the corpus derives
// from these, so a Spec is a complete, portable description of the bits.

// mix folds inputs through splitmix64 into one 64-bit value.
func mix(vs ...int64) uint64 {
	var h uint64 = 0x9E3779B97F4A7C15
	for _, v := range vs {
		h ^= uint64(v)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

func hashString(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}

// xorshift is a tiny fast PRNG for bulk content generation.
type xorshift uint64

func newXorshift(seed uint64) xorshift {
	if seed == 0 {
		seed = 0x2545F4914F6CDD1D
	}
	return xorshift(seed)
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// float returns a uniform float64 in [0,1).
func (x *xorshift) float() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}

// ---------------------------------------------------------------------------
// Content pools. A pool is an infinite deterministic byte space addressed
// by (poolID, offset); two images referencing the same pool range see
// identical bytes, which is what deduplicates. Content is generated in
// 4 KB cells of three kinds chosen pseudo-randomly per cell:
//
//	TEXT — repeats one of the pool's 64 motifs (512–2040 B of a printable
//	       alphabet); highly compressible, with cross-cell redundancy when
//	       cells share a motif, so bigger blocks compress better.
//	BIN  — alternating 8-byte runs of random and small-alphabet bytes;
//	       semi-compressible, like executables and libraries.
//	RAND — incompressible (already-compressed payloads, media).

const cellSize = 4096

type poolID uint64

// Pool kinds.
const (
	poolBoot = iota
	poolBase
	poolPkg
	poolUser
)

func poolFor(seed int64, kind int, distro string, release int) poolID {
	return poolID(mix(seed, int64(kind), hashString(distro), int64(release)))
}

func userPool(seed, imageSeed int64) poolID {
	return poolID(mix(seed, int64(poolUser), imageSeed))
}

// cellKind weights: text 55%, bin 30%, rand 15%.
func cellKind(p poolID, cell int64) int {
	u := mix(int64(p), cell, 0x11) % 100
	switch {
	case u < 55:
		return 0 // text
	case u < 85:
		return 1 // bin
	default:
		return 2 // rand
	}
}

const textAlphabet = "etaoin shrdlucmfwypvbgkqjxz,.-()/ETAOIN0123456789=_:\"'\n\tclassName"

// motif returns the pool's motifID-th motif (cached-free: regenerated on
// demand; it is cheap).
func motif(p poolID, motifID uint64, dst []byte) []byte {
	rng := newXorshift(mix(int64(p), int64(motifID), 0x22))
	n := 512 + int(rng.next()%1528)
	dst = dst[:0]
	for len(dst) < n {
		v := rng.next()
		for b := 0; b < 8; b++ {
			dst = append(dst, textAlphabet[byte(v)%64])
			v >>= 8
		}
	}
	return dst[:n]
}

// fillCell writes the 4 KB cell (p, cell) into dst (len(dst)==cellSize).
func fillCell(p poolID, cell int64, dst []byte, scratch *[]byte) {
	switch cellKind(p, cell) {
	case 0: // text
		// Cells in the same 64 KB group share a motif, so blocks larger
		// than a few cells see long-range redundancy (like the repeated
		// structure within one real file), while 1–2 KB blocks barely fit
		// a single motif repeat — this is what makes gzip's ratio fall as
		// block size shrinks (Fig 2).
		motifID := mix(int64(p), cell>>4, 0x33) % 64
		m := motif(p, motifID, (*scratch)[:0])
		*scratch = m
		for i := 0; i < cellSize; {
			i += copy(dst[i:], m)
		}
		// A small unique header keeps cells distinguishable, like file
		// headers and timestamps in real config files.
		hdr := mix(int64(p), cell, 0x44)
		binary.LittleEndian.PutUint64(dst[:8], hdr)
	case 1: // bin
		rng := newXorshift(mix(int64(p), cell, 0x55))
		for i := 0; i+16 <= cellSize; i += 16 {
			v := rng.next()
			binary.LittleEndian.PutUint64(dst[i:], v)
			// Second half of each 16-byte run comes from a 16-symbol
			// alphabet, halving its entropy.
			w := rng.next()
			for b := 0; b < 8; b++ {
				dst[i+8+b] = byte('A' + (w>>(4*uint(b)))&0xF)
			}
		}
	default: // rand
		rng := newXorshift(mix(int64(p), cell, 0x66))
		for i := 0; i+8 <= cellSize; i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], rng.next())
		}
	}
}

// ---------------------------------------------------------------------------
// Segments and image construction.

type segKind uint8

const (
	segPool segKind = iota
	segZero
)

// segment is one extent of an image's recipe. Pool segments may carry an
// edit overlay: deterministic per-image point mutations every editEvery
// bytes on average, modelling per-image customization of shared files.
type segment struct {
	kind    segKind
	off     int64 // file offset of the segment start
	length  int64
	pool    poolID
	poolOff int64
	edits   editSpec
}

type editSpec struct {
	seed  int64 // 0 disables edits
	every int64
}

const editLen = 64

// editAt returns, for edit window w (covering [w*every, (w+1)*every) of
// the segment), the in-segment offset of the edit.
func (e editSpec) editAt(w int64) int64 {
	span := e.every - editLen
	if span <= 0 {
		return w * e.every
	}
	return w*e.every + int64(mix(e.seed, w, 0x77)%uint64(span))
}

// applyEdits overlays the image's point edits onto buf, which holds the
// segment's bytes for [segRelOff, segRelOff+len(buf)).
func (s *segment) applyEdits(buf []byte, segRelOff int64) {
	if s.edits.seed == 0 || s.edits.every <= 0 {
		return
	}
	first := segRelOff / s.edits.every
	last := (segRelOff + int64(len(buf)) + editLen) / s.edits.every
	for w := first - 1; w <= last; w++ {
		if w < 0 || w*s.edits.every >= s.length {
			continue
		}
		p := s.edits.editAt(w)
		rng := newXorshift(mix(s.edits.seed, w, 0x88))
		for i := int64(0); i < editLen; i++ {
			bufIdx := p + i - segRelOff
			if bufIdx >= 0 && bufIdx < int64(len(buf)) {
				buf[bufIdx] = byte(rng.next())
			} else {
				rng.next() // keep the byte stream aligned
			}
		}
	}
}

// alignUp rounds n up to a multiple of cellSize.
func alignUp(n int64) int64 {
	return (n + cellSize - 1) / cellSize * cellSize
}

// alignTo rounds n up to a multiple of a (a power of two ≥ cellSize).
func alignTo(n, a int64) int64 {
	if a < cellSize {
		a = cellSize
	}
	return (n + a - 1) &^ (a - 1)
}

// buildImage constructs the recipe for image index idx of the given
// distro release.
func buildImage(spec Spec, distro string, release int, idx int) *Image {
	imgSeed := int64(mix(spec.Seed, hashString(distro), int64(idx), 0x99))
	im := &Image{
		ID:      fmt.Sprintf("%s-r%d-%04d", distro, release, idx),
		Distro:  distro,
		Release: release,
		seed:    imgSeed,
	}
	rng := newXorshift(uint64(imgSeed))

	// Per-image size variation: ±30% around the spec mean.
	nonzero := int64(float64(spec.ImageNonzero) * (0.7 + 0.6*rng.float()))
	cacheLen := alignUp(int64(float64(nonzero) * spec.CacheFrac))
	if cacheLen < 2*spec.CacheAlign {
		cacheLen = 2 * spec.CacheAlign
	}
	// The boot region is rounded to the CoR granularity: distribution
	// kernels and init binaries are large contiguous files, so the shared
	// prefix tiles whole cache blocks and deduplicates across images of
	// one release even when their total cache sizes differ.
	bootLen := alignTo(int64(float64(cacheLen)*0.75), spec.CacheAlign)
	uniqBootLen := alignUp(int64(float64(cacheLen) * 0.05))
	baseLen := alignUp(int64(float64(nonzero) * spec.BaseFrac))
	pkgLen := alignUp(int64(float64(nonzero) * spec.PkgFrac))
	userLen := alignUp(nonzero - bootLen - uniqBootLen - baseLen - pkgLen)
	if userLen < cellSize {
		userLen = cellSize
	}

	misaligned := rng.float() < spec.MisalignFrac
	im.misaligned = misaligned
	bootPool := poolFor(spec.Seed, poolBoot, distro, release)
	basePool := poolFor(spec.Seed, poolBase, distro, release)
	uPool := userPool(spec.Seed, imgSeed)

	var segs []segment
	var off int64
	add := func(s segment) {
		s.off = off
		off += s.length
		segs = append(segs, s)
	}
	// Misaligned images get a sub-4K slip of unique bytes ahead of all
	// shared content, so their shared blocks sit at shifted file offsets.
	var userOff int64
	var phase int64
	if misaligned {
		slip := int64(512 * (1 + rng.next()%7)) // 512..3584, never 4K-aligned
		add(segment{kind: segPool, length: slip, pool: uPool, poolOff: userOff})
		userOff += slip
		phase = slip & (spec.CacheAlign - 1)
	}
	// pad inserts a zero filler (file-system free space) so the next
	// segment starts CacheAlign-aligned (plus the misalignment phase).
	pad := func() {
		if rem := (off - phase) & (spec.CacheAlign - 1); rem != 0 {
			add(segment{kind: segZero, length: spec.CacheAlign - rem})
		}
	}
	// The boot region is split into chunks interleaved with OS-base
	// content: boot files (kernel, initrd, init binaries, service
	// configs) are scattered across a real image's file system, which is
	// what makes booting from the base VMI seek-heavy while a compact
	// warm cache reads almost sequentially (Fig 11's baseline gap; cf.
	// VMTorrent's block-placement figure cited in §4.2.3).
	nChunks := int(bootLen / (4 * spec.CacheAlign))
	if nChunks < 1 {
		nChunks = 1
	}
	if nChunks > 12 {
		nChunks = 12
	}
	chunkLen := alignTo(bootLen/int64(nChunks), spec.CacheAlign)
	basePiece := alignUp(baseLen / int64(nChunks))
	var bootExts []Extent
	var bootOff, baseOff int64
	for k := 0; bootOff < bootLen; k++ {
		l := chunkLen
		if bootOff+l > bootLen {
			l = bootLen - bootOff
		}
		pad()
		bootExts = append(bootExts, Extent{Off: off, Len: l})
		// Shared boot pool, very sparse edits (kernels and init binaries
		// rarely differ across images of one release).
		add(segment{kind: segPool, length: l, pool: bootPool, poolOff: bootOff,
			edits: editSpec{seed: imgSeed + 1 + int64(k)<<8, every: spec.EditEvery * 16}})
		bootOff += l
		if bl := min64(basePiece, baseLen-baseOff); bl > 0 {
			// OS base: shared per release, normally edited.
			add(segment{kind: segPool, length: bl, pool: basePool, poolOff: baseOff,
				edits: editSpec{seed: imgSeed + 2 + int64(k)<<8, every: spec.EditEvery}})
			baseOff += bl
		}
	}
	// Early-boot per-image configuration (hostname, keys, fstab).
	pad()
	uniqExt := Extent{Off: off, Len: uniqBootLen}
	add(segment{kind: segPool, length: uniqBootLen, pool: uPool, poolOff: userOff})
	userOff += uniqBootLen
	// Rest of the OS base, if the interleave did not consume it.
	if rem := baseLen - baseOff; rem > 0 {
		add(segment{kind: segPool, length: rem, pool: basePool, poolOff: baseOff,
			edits: editSpec{seed: imgSeed + 2, every: spec.EditEvery}})
	}
	// Packages: Zipf-popular picks from the distro's package catalog.
	pkgPool := poolFor(spec.Seed, poolPkg, distro, 0) // catalog shared across releases
	var got int64
	for got < pkgLen {
		rank := pickZipf(rng.float(), pkgCatalogSize)
		ext := pkgExtent(pkgPool, rank)
		l := ext.Len
		if got+l > pkgLen {
			l = pkgLen - got
		}
		add(segment{kind: segPool, length: l, pool: pkgPool, poolOff: ext.Off,
			edits: editSpec{seed: imgSeed + 3 + got, every: spec.EditEvery * 2}})
		got += l
	}
	// Unique user data.
	add(segment{kind: segPool, length: userLen, pool: uPool, poolOff: userOff})
	// Sparse tail.
	zeroLen := alignUp(int64(float64(nonzero) * (spec.SparseFactor - 1)))
	if zeroLen > 0 {
		add(segment{kind: segZero, length: zeroLen})
	}

	im.recipe = segs
	im.rawSize = off
	im.nonzero = off - zeroLen
	im.layout = NewLayout(buildCacheExtents(spec, im, rng, bootExts, uniqExt, cacheLen))
	return im
}

// min64 returns the smaller of two int64s.
func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// pkgCatalogSize is the number of distinct packages per distro catalog.
const pkgCatalogSize = 512

// pkgExtent returns the pool range of package rank in a catalog: packages
// are laid out back to back with per-package sizes of 16 KB – 512 KB.
func pkgExtent(p poolID, rank int) Extent {
	var off int64
	var l int64
	for r := 0; r <= rank; r++ {
		l = int64(16<<10) + int64(mix(int64(p), int64(r), 0xAA)%uint64(496<<10))
		l = alignUp(l)
		if r < rank {
			off += l
		}
	}
	return Extent{Off: off, Len: l}
}

// pickZipf maps a uniform u to a rank in [0, n) with quadratic skew
// toward popular (low) ranks — a cheap Zipf-like popularity model.
func pickZipf(u float64, n int) int {
	r := int(float64(n) * u * u)
	if r >= n {
		r = n - 1
	}
	return r
}

// buildCacheExtents derives the boot working set. Raw boot reads cover
// the whole boot region and early-boot config plus a scattering of base
// and package reads (init scripts, shared libraries, service binaries).
// Because the first boot populates the cache by copy-on-read at QCOW2
// cluster granularity, the cache itself is the cluster-aligned, merged
// superset of those reads — which is also what guarantees warm boots
// never leave the cache. The extents come back disjoint and sorted by
// offset; a boot reads each of them once, whole, in that order.
func buildCacheExtents(spec Spec, im *Image, rng xorshift, bootExts []Extent, uniqExt Extent, cacheLen int64) (cache []Extent) {
	align := spec.CacheAlign
	raw := append([]Extent{}, bootExts...)
	raw = append(raw, uniqExt)
	var bootTotal int64
	for _, e := range bootExts {
		bootTotal += e.Len
	}
	// Sampled reads from base and packages (≈20% of the cache), drawn
	// from the content after the boot region so the cache stream keeps
	// its shared boot-pool prefix (fetch order is boot order, which is
	// the same across images of a release).
	sampled := cacheLen - bootTotal - uniqExt.Len
	sampleStart := uniqExt.Off + uniqExt.Len
	region := im.nonzero - sampleStart
	for got := int64(0); got < sampled && region > align; {
		l := int64(16<<10) + int64(rng.next()%uint64(48<<10))
		if got+l > sampled {
			l = sampled - got
		}
		// Popularity-biased offsets (u³ skew): boots of different images
		// touch largely the same init scripts and shared libraries, so
		// sampled reads cluster at the popular low offsets.
		u := rng.float()
		off := sampleStart + int64(u*u*u*float64(region))
		if off+l > sampleStart+region {
			off = sampleStart + region - l
		}
		raw = append(raw, Extent{Off: off, Len: l})
		got += l
	}
	// Round every read out to the CoR granularity, clip to the nonzero
	// content, and merge overlaps into a disjoint sorted set.
	for i, e := range raw {
		lo := e.Off &^ (align - 1)
		hi := (e.Off + e.Len + align - 1) &^ (align - 1)
		if hi > im.nonzero {
			hi = im.nonzero
		}
		raw[i] = Extent{Off: lo, Len: hi - lo}
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i].Off < raw[j].Off })
	for _, e := range raw {
		if e.Len <= 0 {
			continue
		}
		if n := len(cache); n > 0 && cache[n-1].Off+cache[n-1].Len >= e.Off {
			if end := e.Off + e.Len; end > cache[n-1].Off+cache[n-1].Len {
				cache[n-1].Len = end - cache[n-1].Off
			}
			continue
		}
		cache = append(cache, e)
	}
	return cache
}
