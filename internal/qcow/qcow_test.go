package qcow

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func mkBase(seed int64, n int) *MemBackend {
	rng := rand.New(rand.NewSource(seed))
	d := make([]byte, n)
	rng.Read(d)
	return &MemBackend{Data: d}
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

func TestCopyOnWriteIsolation(t *testing.T) {
	base := mkBase(2, 256*1024)
	orig := append([]byte(nil), base.Data...)
	ov, _ := NewOverlay(base, 64*1024, false)
	patch := []byte("squirrel was here")
	if _, err := ov.WriteAt(patch, 100_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.Data, orig) {
		t.Fatal("write leaked into the base image")
	}
	got := make([]byte, len(patch))
	ov.ReadAt(got, 100_000)
	if !bytes.Equal(got, patch) {
		t.Fatal("write not visible through overlay")
	}
	// Bytes around the patch still come from base.
	around := make([]byte, 64)
	ov.ReadAt(around, 100_000-64)
	if !bytes.Equal(around, orig[100_000-64:100_000]) {
		t.Fatal("partial-cluster write corrupted neighbours")
	}
}

func TestCopyOnReadWarmsCache(t *testing.T) {
	base := mkBase(3, 512*1024)
	cache, _ := NewOverlay(base, 64*1024, true)
	buf := make([]byte, 1000)
	cache.ReadAt(buf, 70_000) // one cluster fetched, cached
	if cache.CachedClusters() != 1 {
		t.Fatalf("cached clusters = %d, want 1", cache.CachedClusters())
	}
	first := cache.BackingReads
	if first != 64*1024 {
		t.Fatalf("cluster fetch read %d bytes from backing, want full cluster", first)
	}
	cache.ReadAt(buf, 70_500) // same cluster: no backing traffic
	if cache.BackingReads != first {
		t.Fatal("warm cluster went to backing again")
	}
	if cache.LocalReads == 0 {
		t.Fatal("local read not accounted")
	}
}

func TestNoCopyOnReadStaysCold(t *testing.T) {
	base := mkBase(4, 256*1024)
	ov, _ := NewOverlay(base, 64*1024, false)
	buf := make([]byte, 100)
	ov.ReadAt(buf, 0)
	ov.ReadAt(buf, 0)
	if ov.CachedClusters() != 0 {
		t.Fatal("CoW-only overlay must not retain read clusters")
	}
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
	// Writes stay in the CoW layer; the cache remains clean.
	cow.WriteAt([]byte("dirty"), 0)
	probe := make([]byte, 5)
	cache.ReadAt(probe, 0)
	if string(probe) == "dirty" {
		t.Fatal("write leaked into the cache layer")
	}
}

func TestReadWriteQuick(t *testing.T) {
	// Property: an overlay behaves exactly like a plain byte array under
	// arbitrary read/write interleavings.
	type op struct {
		Write bool
		Off   uint32
		Len   uint16
		Fill  byte
	}
	base := mkBase(6, 128*1024)
	f := func(ops []op) bool {
		shadow := append([]byte(nil), base.Data...)
		ov, _ := NewOverlay(&MemBackend{Data: append([]byte(nil), base.Data...)}, 4096, true)
		for _, o := range ops {
			off := int64(o.Off) % int64(len(shadow))
			l := int64(o.Len) % 2048
			if off+l > int64(len(shadow)) {
				l = int64(len(shadow)) - off
			}
			if o.Write {
				p := bytes.Repeat([]byte{o.Fill}, int(l))
				if _, err := ov.WriteAt(p, off); err != nil {
					return false
				}
				copy(shadow[off:off+l], p)
			} else {
				got := make([]byte, l)
				if _, err := ov.ReadAt(got, off); err != nil && err != io.EOF {
					return false
				}
				if !bytes.Equal(got, shadow[off:off+l]) {
					return false
				}
			}
		}
		final := make([]byte, len(shadow))
		ov.ReadAt(final, 0)
		return bytes.Equal(final, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWriteOutOfRange(t *testing.T) {
	ov, _ := NewOverlay(mkBase(7, 4096), 4096, false)
	if _, err := ov.WriteAt([]byte{1}, 4096); err == nil {
		t.Fatal("write past end must fail")
	}
	if _, err := ov.WriteAt([]byte{1}, -1); err == nil {
		t.Fatal("negative write must fail")
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

func TestFuncBackend(t *testing.T) {
	calls := 0
	fb := &FuncBackend{
		ReadAtFn: func(p []byte, off int64) (int, error) {
			calls++
			for i := range p {
				p[i] = byte(off) + byte(i)
			}
			return len(p), nil
		},
		SizeFn: func() int64 { return 8192 },
	}
	ov, _ := NewOverlay(fb, 4096, true)
	buf := make([]byte, 10)
	ov.ReadAt(buf, 0)
	ov.ReadAt(buf, 100) // same cluster, cached
	if calls != 1 {
		t.Fatalf("backend called %d times, want 1", calls)
	}
}

func TestRecycledClusterBuffersAreNeverKeptOnes(t *testing.T) {
	// An overlay without copy-on-read hands each fetched cluster back for
	// reuse once it has copied out of it; clusters an overlay keeps (a
	// copy-on-read cache, a written cluster) must never be among them, or
	// a later fetch anywhere would scribble over held data.
	const cluster = 4096
	base := mkBase(9, 10*cluster+100) // short tail cluster
	cor, _ := NewOverlay(base, cluster, true)
	cow, _ := NewOverlay(base, cluster, false)
	patch := []byte("written before the churn")
	if _, err := cow.WriteAt(patch, 2*cluster+7); err != nil {
		t.Fatal(err)
	}
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
	if churn.BackingReads != 3*int64(len(other.Data)) || churn.CachedClusters() != 0 {
		t.Fatalf("churn overlay: %d backing bytes, %d kept clusters", churn.BackingReads, churn.CachedClusters())
	}
	if _, err := cor.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, base.Data) {
		t.Fatalf("the copy-on-read cache changed under recycling (%v)", err)
	}
	if cor.BackingReads != int64(len(base.Data)) {
		t.Fatalf("copy-on-read overlay refetched: %d backing bytes", cor.BackingReads)
	}
	want := append([]byte(nil), base.Data...)
	copy(want[2*cluster+7:], patch)
	if _, err := cow.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("the written cluster changed under recycling (%v)", err)
	}
}
