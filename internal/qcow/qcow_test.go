package qcow

import (
	"bytes"
	"io"
	"math/rand"
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
