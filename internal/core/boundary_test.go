package core

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/qcow"
	"repro/internal/zvol"
)

// stubPFS serves deterministic content (byte(off+i)) up to its size and
// records every read range, so tests can assert exactly which ranges
// went over the network.
type stubPFS struct {
	size  int64
	calls []corpus.Extent
}

func (p *stubPFS) ReadAt(client *cluster.Node, name string, buf []byte, off int64) (int, error) {
	n := int64(len(buf))
	if rem := p.size - off; n > rem {
		n = rem
	}
	if n < 0 {
		n = 0
	}
	for i := int64(0); i < n; i++ {
		buf[i] = byte(off + i)
	}
	p.calls = append(p.calls, corpus.Extent{Off: off, Len: n})
	if n < int64(len(buf)) {
		return int(n), io.EOF
	}
	return int(n), nil
}

// boundaryBackend builds a chainBackend by hand: rawSize 80, cache
// extents [10,20) and [50,70). With local set, rung zero is a real
// one-object volume holding the same byte(off) content the stub PFS
// serves, stored in 8-byte blocks so ranges cross and split blocks.
func boundaryBackend(local bool) (*chainBackend, *stubPFS) {
	pfs := &stubPFS{size: 80}
	lay := corpus.NewLayout([]corpus.Extent{{Off: 10, Len: 10}, {Off: 50, Len: 20}})
	cb := &chainBackend{
		id:      "img",
		rawSize: 80,
		node:    &cluster.Node{ID: "nodeXX"},
		pfs:     pfs,
		lay:     &lay,
	}
	if local {
		var data []byte
		for _, e := range cb.lay.Ext {
			for o := e.Off; o < e.Off+e.Len; o++ {
				data = append(data, byte(o))
			}
		}
		cfg := zvol.DefaultConfig()
		cfg.BlockSize = 8
		ccv, err := zvol.New(cfg)
		if err != nil {
			panic(err)
		}
		if _, err := ccv.WriteObject(cb.id, bytes.NewReader(data)); err != nil {
			panic(err)
		}
		cb.ccv = ccv
	}
	return cb, pfs
}

// into is the window over image range [off, off+len(p)) that copies
// what it is lent into p.
func into(p []byte, off int64) qcow.Window {
	return qcow.Window{From: off, To: off + int64(len(p)), Fn: func(b []byte) { p = p[copy(p, b):] }}
}

func checkContent(t *testing.T, buf []byte, off int64) {
	t.Helper()
	for i, b := range buf {
		if want := byte(off + int64(i)); b != want {
			t.Fatalf("byte %d (image offset %d): got %d want %d", i, off+int64(i), b, want)
		}
	}
}

func TestReadAtGapBeforeFirstExtent(t *testing.T) {
	// A read starting before the first cache extent crosses a PFS-only
	// gap into cached bytes.
	cb, pfs := boundaryBackend(true)
	buf := make([]byte, 15)
	n, err := cb.ReadAt(buf, 0)
	if err != nil || n != 15 {
		t.Fatalf("ReadAt: n=%d err=%v", n, err)
	}
	checkContent(t, buf, 0)
	if cb.networkBytes != 10 || cb.cacheBytes != 5 {
		t.Fatalf("network=%d cache=%d, want 10/5", cb.networkBytes, cb.cacheBytes)
	}
	if len(pfs.calls) != 1 || pfs.calls[0] != (corpus.Extent{Off: 0, Len: 10}) {
		t.Fatalf("pfs calls: %+v", pfs.calls)
	}
}

func TestReadAtStraddlesLastExtentToEOF(t *testing.T) {
	// A read straddling the last extent runs through the trailing gap up
	// to RawSize, then reports EOF for the remainder.
	cb, _ := boundaryBackend(true)
	buf := make([]byte, 30)
	n, err := cb.ReadAt(buf, 65)
	if err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if n != 15 { // 5 cached [65,70) + 10 from PFS [70,80)
		t.Fatalf("read %d bytes, want 15", n)
	}
	checkContent(t, buf[:n], 65)
	if cb.cacheBytes != 5 || cb.networkBytes != 10 {
		t.Fatalf("cache=%d network=%d, want 5/10", cb.cacheBytes, cb.networkBytes)
	}
	// Entirely past EOF: zero bytes, EOF.
	if n, err := cb.ReadAt(make([]byte, 4), 80); n != 0 || err != io.EOF {
		t.Fatalf("past-EOF read: n=%d err=%v", n, err)
	}
}

func TestReadAtZeroLength(t *testing.T) {
	cb, pfs := boundaryBackend(true)
	for _, off := range []int64{0, 15, 40, 80, 200} {
		n, err := cb.ReadAt(nil, off)
		if n != 0 || err != nil {
			t.Fatalf("zero-length read at %d: n=%d err=%v", off, n, err)
		}
	}
	if cb.networkBytes != 0 || cb.cacheBytes != 0 || len(pfs.calls) != 0 {
		t.Fatal("zero-length reads must not move bytes")
	}
}

func TestCacheRangeBoundaries(t *testing.T) {
	cb, _ := boundaryBackend(true)
	big := make([]byte, 100)
	cases := []struct {
		off    int64
		p      int
		n      int64
		ext    int
		served bool
	}{
		{0, 100, 10, -1, false},  // gap before first extent, clamped to it
		{10, 100, 10, 0, true},   // extent start, clamped to extent end
		{19, 100, 1, 0, true},    // last byte of extent 0
		{20, 100, 30, -1, false}, // gap between extents, clamped to extent 1
		{20, 5, 5, -1, false},    // gap read shorter than the gap
		{69, 100, 1, 1, true},    // last byte of extent 1
		{70, 100, 10, -1, false}, // trailing gap clamped at RawSize
		{75, 3, 3, -1, false},    // short read inside trailing gap
	}
	for _, c := range cases {
		n, ext, served := cb.localRange(c.off, int64(c.p), into(big[:c.p], c.off))
		if n != c.n || ext != c.ext || served != c.served {
			t.Fatalf("localRange(off=%d,len=%d) = (%d,%d,%v), want (%d,%d,%v)",
				c.off, c.p, n, ext, served, c.n, c.ext, c.served)
		}
		if served {
			checkContent(t, big[:n], c.off)
		}
	}
	// Zero-length request resolves to zero bytes (inside an extent it
	// still reports the extent, serving nothing).
	if n, ext, _ := cb.localRange(15, 0, into(nil, 15)); n != 0 || ext != 0 {
		t.Fatalf("zero-length localRange: n=%d ext=%d", n, ext)
	}
}

func TestCacheRangeWithoutLocalReplica(t *testing.T) {
	// The same layout with no local replica: ranges inside extents are
	// reported as peer-servable misses (ext >= 0, served false) and no
	// bytes are lent.
	cb, _ := boundaryBackend(false)
	lent := 0
	n, ext, served := cb.localRange(10, 100, qcow.Window{From: 10, To: 110, Fn: func(p []byte) { lent += len(p) }})
	if n != 10 || ext != 0 || served || lent != 0 {
		t.Fatalf("cold miss inside extent: (%d,%d,%v)", n, ext, served)
	}
	// With no fetcher attached, ReadAt sends everything to the PFS and
	// still returns correct content.
	got := make([]byte, 30)
	rn, err := cb.ReadAt(got, 5)
	if err != nil || rn != 30 {
		t.Fatalf("ReadAt: n=%d err=%v", rn, err)
	}
	checkContent(t, got, 5)
	if cb.cacheBytes != 0 || cb.networkBytes != 30 {
		t.Fatalf("cache=%d network=%d, want 0/30", cb.cacheBytes, cb.networkBytes)
	}
}

func TestCacheRangeNoExtents(t *testing.T) {
	pfs := &stubPFS{size: 40}
	cb := &chainBackend{id: "img", rawSize: 40, node: &cluster.Node{ID: "n"}, pfs: pfs, lay: &corpus.Layout{}}
	n, ext, served := cb.localRange(8, 64, into(make([]byte, 64), 8))
	if n != 32 || ext != -1 || served { // clamped to RawSize
		t.Fatalf("extentless localRange: (%d,%d,%v)", n, ext, served)
	}
}

func TestLendRotPartwayServesRangeOnce(t *testing.T) {
	// Extent 1 is cache-object bytes [10,30): the tail of 8-byte block 1,
	// all of block 2 and the head of block 3. Whichever of them rots, the
	// blocks before it pass their checks first; the reader must still be
	// lent image range [50,70) exactly once, all of it from the PFS, and
	// the rot counted once.
	for _, rot := range []int{1, 2, 3} {
		cb, pfs := boundaryBackend(true)
		cb.ctr = metrics.NewCounterSet()
		if err := cb.ccv.CorruptStoredBlock(cb.id, rot, 0, 0xff); err != nil {
			t.Fatal(err)
		}
		var got []byte
		if err := cb.Lend(50, 20, qcow.Window{From: 50, To: 70, Fn: func(p []byte) { got = append(got, p...) }}); err != nil {
			t.Fatalf("rot in block %d: Lend: %v", rot, err)
		}
		if len(got) != 20 {
			t.Fatalf("rot in block %d: lent %d bytes of a 20-byte range", rot, len(got))
		}
		checkContent(t, got, 50)
		if cb.cacheBytes != 0 || cb.networkBytes != 20 {
			t.Fatalf("rot in block %d: cache=%d network=%d, want 0/20", rot, cb.cacheBytes, cb.networkBytes)
		}
		if len(pfs.calls) != 1 || pfs.calls[0] != (corpus.Extent{Off: 50, Len: 20}) {
			t.Fatalf("rot in block %d: pfs calls %+v", rot, pfs.calls)
		}
		if c := cb.ctr.Get("boot.corrupt_local"); c != 1 {
			t.Fatalf("rot in block %d: boot.corrupt_local = %d, want 1", rot, c)
		}
	}
}
