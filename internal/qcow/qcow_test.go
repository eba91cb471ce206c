package qcow

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// memBackend is an in-memory flat image; the reader serves Data.
type memBackend struct {
	*bytes.Reader
	Data []byte
}

func mkBase(seed int64, n int) *memBackend {
	rng := rand.New(rand.NewSource(seed))
	d := make([]byte, n)
	rng.Read(d)
	return &memBackend{bytes.NewReader(d), d}
}

func TestOverlayReadEqualsBase(t *testing.T) {
	base := mkBase(1, 300*1024+123)
	ov, err := NewOverlay(base, DefaultClusterSize, false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(base.Data))
	if _, err := ov.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base.Data) {
		t.Fatal("pristine overlay must equal base")
	}
}

func TestCopyOnReadWarmsCache(t *testing.T) {
	base := mkBase(3, 512*1024)
	cache, _ := NewOverlay(base, 64*1024, true)
	buf := make([]byte, 1000)
	cache.ReadAt(buf, 70_000) // one cluster fetched, cached
	first := cache.BackingReads
	if first != 64*1024 {
		t.Fatalf("cluster fetch read %d bytes from backing, want full cluster", first)
	}
	cache.ReadAt(buf, 70_500) // same cluster: no backing traffic
	if cache.BackingReads != first {
		t.Fatal("warm cluster went to backing again")
	}
}

func TestNoCopyOnReadStaysCold(t *testing.T) {
	base := mkBase(4, 256*1024)
	ov, _ := NewOverlay(base, 64*1024, false)
	buf := make([]byte, 100)
	ov.ReadAt(buf, 0)
	ov.ReadAt(buf, 0)
	if ov.BackingReads != 2*64*1024 {
		t.Fatalf("backing reads %d, want two cluster fetches", ov.BackingReads)
	}
}

func TestChainWarmCacheNeverTouchesBase(t *testing.T) {
	// Figure 1 bottom: VM → CoW → warm cache; the base sees zero reads.
	base := mkBase(5, 512*1024)
	cache, _ := NewOverlay(base, 64*1024, true)
	// Warm the cache with the full boot working set.
	boot := make([]byte, 256*1024)
	cache.ReadAt(boot, 0)
	warmedTraffic := cache.BackingReads

	cow, _ := NewOverlay(cache, 64*1024, false)
	buf := make([]byte, 200*1024)
	if _, err := cow.ReadAt(buf, 10_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, base.Data[10_000:10_000+200*1024]) {
		t.Fatal("chained read wrong")
	}
	if cache.BackingReads != warmedTraffic {
		t.Fatal("warm boot touched the base image")
	}
}

func TestReadPastEnd(t *testing.T) {
	ov, _ := NewOverlay(mkBase(8, 10_000), 4096, false)
	buf := make([]byte, 100)
	n, err := ov.ReadAt(buf, 9_950)
	if n != 50 || err != io.EOF {
		t.Fatalf("n=%d err=%v, want 50, EOF", n, err)
	}
}

func TestBadConstruction(t *testing.T) {
	if _, err := NewOverlay(nil, 4096, false); err == nil {
		t.Fatal("nil backing must fail")
	}
	if _, err := NewOverlay(mkBase(9, 10), 0, false); err == nil {
		t.Fatal("zero cluster must fail")
	}
}

func TestConcurrentReaders(t *testing.T) {
	base := mkBase(10, 1<<20)
	cache, _ := NewOverlay(base, 64*1024, true)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 2048)
			for i := 0; i < 200; i++ {
				off := rng.Int63n(int64(len(base.Data)) - 2048)
				if _, err := cache.ReadAt(buf, off); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, base.Data[off:off+2048]) {
					errs <- io.ErrUnexpectedEOF
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRecycledClusterBuffersAreNeverKeptOnes(t *testing.T) {
	// An overlay without copy-on-read hands each fetched cluster back for
	// reuse once it has copied out of it; clusters a copy-on-read cache
	// keeps must never be among them, or a later fetch anywhere would
	// scribble over held data.
	const cluster = 4096
	base := mkBase(9, 10*cluster+100) // short tail cluster
	cor, _ := NewOverlay(base, cluster, true)
	warm := make([]byte, len(base.Data))
	if _, err := cor.ReadAt(warm, 0); err != nil { // every cluster now cached
		t.Fatal(err)
	}
	// Churn the recycled buffers with other content, tail included.
	other := mkBase(10, len(base.Data))
	churn, _ := NewOverlay(other, cluster, false)
	buf := make([]byte, len(other.Data))
	for i := 0; i < 3; i++ {
		if _, err := churn.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, other.Data) {
			t.Fatalf("pass %d over recycled buffers misread the base (%v)", i, err)
		}
	}
	if churn.BackingReads != 3*int64(len(other.Data)) {
		t.Fatalf("churn overlay: %d backing bytes", churn.BackingReads)
	}
	if _, err := cor.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, base.Data) {
		t.Fatalf("the copy-on-read cache changed under recycling (%v)", err)
	}
	if cor.BackingReads != int64(len(base.Data)) {
		t.Fatalf("copy-on-read overlay refetched: %d backing bytes", cor.BackingReads)
	}
}

// recordingBackend is a memBackend that logs every read it serves and
// fails any read that overlaps failAt (when failAt >= 0).
type recordingBackend struct {
	*memBackend
	reads  [][2]int64 // (off, len) per ReadAt
	failAt int64
}

var errBackend = errors.New("backend read failed")

func (r *recordingBackend) ReadAt(p []byte, off int64) (int, error) {
	r.reads = append(r.reads, [2]int64{off, int64(len(p))})
	if r.failAt >= off && r.failAt < off+int64(len(p)) {
		return 0, errBackend
	}
	return r.memBackend.ReadAt(p, off)
}

func TestOverlayDirectFillMatchesStaged(t *testing.T) {
	// A plain overlay over a backing that can only ReadAt stages every
	// cluster in a pooled buffer, whether the read covers it whole or in
	// part. Either way the reader sees the base's bytes and the backing
	// store sees one whole-cluster read per touched cluster — the same
	// reads, and the same BackingReads, whatever the range: exact
	// clusters, runs of them, unaligned spans, the short last cluster.
	const cluster = 4096
	base := mkBase(11, 9*cluster+1000) // short last cluster
	size := int64(len(base.Data))
	rng := rand.New(rand.NewSource(12))
	type span struct{ off, n int64 }
	spans := []span{
		{0, cluster}, {3 * cluster, cluster}, {cluster, 4 * cluster}, // exact clusters
		{9 * cluster, 1000}, {8 * cluster, cluster + 1000}, {0, size}, // the short tail
		{100, cluster}, {cluster - 1, 2}, {5*cluster + 7, 3 * cluster},
	}
	for i := 0; i < 200; i++ {
		off := rng.Int63n(size)
		spans = append(spans, span{off, 1 + rng.Int63n(size-off)})
		ci := rng.Int63n(10) // a run of whole clusters
		spans = append(spans, span{ci * cluster, min(size, (ci+1+rng.Int63n(3))*cluster) - ci*cluster})
	}
	for _, s := range spans {
		rb := &recordingBackend{memBackend: base, failAt: -1}
		ov, err := NewOverlay(rb, cluster, false)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, s.n)
		if n, err := ov.ReadAt(got, s.off); err != nil || int64(n) != s.n {
			t.Fatalf("[%d,+%d): %d bytes, %v", s.off, s.n, n, err)
		}
		if !bytes.Equal(got, base.Data[s.off:s.off+s.n]) {
			t.Fatalf("[%d,+%d): bytes differ from the base", s.off, s.n)
		}
		var want [][2]int64
		var wantBytes int64
		for ci := s.off / cluster; ci*cluster < s.off+s.n; ci++ {
			l := min(cluster, size-ci*cluster)
			want = append(want, [2]int64{ci * cluster, l})
			wantBytes += l
		}
		if !slices.Equal(rb.reads, want) || ov.BackingReads != wantBytes {
			t.Fatalf("[%d,+%d): backing reads %v (%d bytes), want whole clusters %v (%d bytes)",
				s.off, s.n, rb.reads, ov.BackingReads, want, wantBytes)
		}
	}

	t.Run("backend error", func(t *testing.T) {
		// A failed fetch of a cluster the read covers whole is the read's
		// error, counted nowhere; the clusters before it were delivered.
		rb := &recordingBackend{memBackend: base, failAt: 2*cluster + 5}
		ov, _ := NewOverlay(rb, cluster, false)
		got := make([]byte, 4*cluster)
		n, err := ov.ReadAt(got, 0)
		if !errors.Is(err, errBackend) || n != 2*cluster {
			t.Fatalf("read over a failing cluster: %d bytes, %v", n, err)
		}
		if ov.BackingReads != 2*cluster {
			t.Fatalf("BackingReads %d, want the two delivered clusters", ov.BackingReads)
		}
	})

	t.Run("copy-on-read still caches", func(t *testing.T) {
		// With copy-on-read a whole-cluster read is staged and kept: the
		// second read is served without the backing store, and scribbling
		// over the first read's buffer does not reach the kept cluster.
		rb := &recordingBackend{memBackend: base, failAt: -1}
		ov, _ := NewOverlay(rb, cluster, true)
		got := make([]byte, cluster)
		for i := 0; i < 2; i++ {
			if _, err := ov.ReadAt(got, cluster); err != nil || !bytes.Equal(got, base.Data[cluster:2*cluster]) {
				t.Fatalf("read %d: %v", i, err)
			}
			clear(got)
		}
		if len(rb.reads) != 1 || ov.BackingReads != cluster {
			t.Fatalf("copy-on-read fetched %d times (%d bytes), want once", len(rb.reads), ov.BackingReads)
		}
	})
}

// lendingBackend is a memBackend that can lend: it logs every Lend and
// lends Data itself in pieces of at most piece bytes, failing any Lend
// that overlaps failAt (when failAt >= 0).
type lendingBackend struct {
	*memBackend
	piece  int64
	lends  [][2]int64 // (off, n) per Lend
	failAt int64
}

func (l *lendingBackend) Lend(off, n int64, w Window) error {
	l.lends = append(l.lends, [2]int64{off, n})
	if l.failAt >= off && l.failAt < off+n {
		return errBackend
	}
	for at := off; at < off+n; {
		at = w.Put(at, l.Data[at:min(at+l.piece, off+n)])
	}
	return nil
}

func TestOverlayLendsThroughALender(t *testing.T) {
	// Over a backing that lends, Visit asks it for the same whole clusters
	// a ReadAt backing is asked for, counts them in BackingReads, and
	// passes on exactly the bytes the read asked for, in order — the
	// backing's own bytes, copied nowhere. ReadAt is a copy out of them.
	const cluster = 4096
	base := mkBase(13, 9*cluster+1000) // short last cluster
	size := int64(len(base.Data))
	for _, s := range []struct{ off, n int64 }{
		{0, cluster}, {cluster - 1, 2}, {100, 3 * cluster}, {8*cluster + 5, cluster + 995}, {0, size},
	} {
		lb := &lendingBackend{memBackend: base, piece: 1000, failAt: -1}
		ov, err := NewOverlay(lb, cluster, false)
		if err != nil {
			t.Fatal(err)
		}
		at := s.off
		err = ov.Visit(s.off, s.n, func(p []byte) {
			if &p[0] != &base.Data[at] {
				t.Fatalf("[%d,+%d): the piece at %d is not the backing's own bytes", s.off, s.n, at)
			}
			at += int64(len(p))
		})
		if err != nil || at != s.off+s.n {
			t.Fatalf("[%d,+%d): lent %d bytes, %v", s.off, s.n, at-s.off, err)
		}
		var want [][2]int64
		var wantBytes int64
		for ci := s.off / cluster; ci*cluster < s.off+s.n; ci++ {
			l := min(cluster, size-ci*cluster)
			want = append(want, [2]int64{ci * cluster, l})
			wantBytes += l
		}
		if !slices.Equal(lb.lends, want) || ov.BackingReads != wantBytes {
			t.Fatalf("[%d,+%d): lends %v (%d bytes), want whole clusters %v (%d bytes)",
				s.off, s.n, lb.lends, ov.BackingReads, want, wantBytes)
		}
		got := make([]byte, s.n)
		if n, err := ov.ReadAt(got, s.off); err != nil || int64(n) != s.n || !bytes.Equal(got, base.Data[s.off:s.off+s.n]) {
			t.Fatalf("[%d,+%d): ReadAt %d bytes, %v", s.off, s.n, n, err)
		}
	}

	t.Run("backend error", func(t *testing.T) {
		// A failed Lend is the read's error, counted nowhere; the clusters
		// before it were delivered.
		lb := &lendingBackend{memBackend: base, piece: cluster, failAt: 2*cluster + 5}
		ov, _ := NewOverlay(lb, cluster, false)
		got := make([]byte, 4*cluster)
		n, err := ov.ReadAt(got, 0)
		if !errors.Is(err, errBackend) || n != 2*cluster || ov.BackingReads != 2*cluster {
			t.Fatalf("read over a failing cluster: %d bytes (%d counted), %v", n, ov.BackingReads, err)
		}
	})

	t.Run("past the end", func(t *testing.T) {
		lb := &lendingBackend{memBackend: base, piece: cluster, failAt: -1}
		ov, _ := NewOverlay(lb, cluster, false)
		lent := int64(0)
		err := ov.Visit(size-10, 30, func(p []byte) { lent += int64(len(p)) })
		if err != io.EOF || lent != 10 {
			t.Fatalf("read across the end: %d bytes lent, %v", lent, err)
		}
	})
}
