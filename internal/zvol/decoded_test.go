package zvol

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/metrics"
)

// decodeCounts returns the decoded-block cache's hit and miss counters.
func decodeCounts(c *metrics.CounterSet) (hit, miss int64) {
	return c.Get("zvol.decode.hit"), c.Get("zvol.decode.miss")
}

// counted gives v a fresh counter set and returns it.
func counted(v *Volume) *metrics.CounterSet {
	c := metrics.NewCounterSet()
	v.SetCounters(c)
	return c
}

func TestDecodedCacheNeverHidesRot(t *testing.T) {
	// Rot under a hot cache, on a payload the volume owns (rotted in place,
	// so its cache key is unchanged) and on one a prepared receiver
	// aliases (copy-on-written, so the key changes). Either way the read
	// fails its CRC32C before the cache is asked, Scrub reads the disk and
	// reports the block, and after RepairBlock reads return the written
	// bytes again.
	_, src, st := countedPair(t)
	ps := src.Prepare(st) // lends src's payloads out: its slots are shared too
	var replicas [2]*Volume
	for i := range replicas {
		v, err := New(src.Config())
		if err != nil {
			t.Fatal(err)
		}
		if err := v.ReceivePrepared(ps); err != nil {
			t.Fatal(err)
		}
		replicas[i] = v
	}
	want, err := src.ReadObject("base")
	if err != nil {
		t.Fatal(err)
	}
	// The sender and its replicas hold one payload per block, so they share
	// one decode: a replica's first read of what the sender read is all hits.
	ctr := counted(replicas[1])
	if err := replicas[1].ReadAt("base", make([]byte, len(want)), 0); err != nil {
		t.Fatal(err)
	}
	if hit, miss := decodeCounts(ctr); hit == 0 || miss != 0 {
		t.Fatalf("first read of an aliased payload: %d hits, %d misses, want all hits", hit, miss)
	}

	owner, err := New(src.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteObject("base", bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if shared := owner.StoreStats().Shared; shared != 0 {
		t.Fatalf("the writer's store shares %d payloads, want none", shared)
	}
	infos, err := owner.BlockInfos("base")
	if err != nil {
		t.Fatal(err)
	}
	idx := slices.IndexFunc(infos, func(bi BlockInfo) bool { return bi.Compressed })
	if idx < 0 {
		t.Fatal("base has no compressed block")
	}
	bs := int(src.Config().BlockSize)
	intact := want[idx*bs : (idx+1)*bs]

	for _, c := range []struct {
		name string
		v    *Volume
	}{{"owned", owner}, {"shared", replicas[0]}} {
		t.Run(c.name, func(t *testing.T) {
			ctr := counted(c.v)
			got := make([]byte, len(want))
			for i := 0; i < 2; i++ { // the second read is served by the cache
				if err := c.v.ReadAt("base", got, 0); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("read %d before the rot: %v", i, err)
				}
			}
			if hit, _ := decodeCounts(ctr); hit == 0 {
				t.Fatal("the cache served nothing: it is not hot")
			}
			if err := c.v.CorruptStoredBlock("base", idx, 3, 0x10); err != nil {
				t.Fatal(err)
			}
			if err := c.v.ReadAt("base", got[:100], int64(idx*bs+50)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadAt over the rotted block under a hot cache: %v", err)
			}
			if err := c.v.ReadAt("base", got, 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("whole ReadAt over the rotted block under a hot cache: %v", err)
			}
			hit, miss := decodeCounts(ctr)
			rep := c.v.Scrub()
			if h, m := decodeCounts(ctr); h != hit || m != miss {
				t.Fatalf("scrub went through the decoded-block cache (%d hits, %d misses), not the disk", h-hit, m-miss)
			}
			if !slices.Contains(rep.Damaged, BlockRef{Object: "base", Index: idx}) { // and a dedup alias on the replica
				t.Fatalf("scrub under a hot cache: %+v", rep)
			}
			for _, other := range []*Volume{src, replicas[1]} {
				if err := other.ReadAt("base", got, 0); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("a volume sharing the payload read the rot: %v", err)
				}
			}
			if err := c.v.RepairBlock("base", idx, intact); err != nil {
				t.Fatal(err)
			}
			if err := c.v.ReadAt("base", got, 0); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("read after the repair: %v", err)
			}
		})
	}
}

// blockOf is a compressible 4 KB block made from c.
func blockOf(c byte) []byte { return bytes.Repeat([]byte{c, c + 1, c + 2}, 4096)[:4096] }

// oneBlock writes name as the single compressed block blockOf(c) and
// returns its address.
func oneBlock(t *testing.T, v *Volume, name string, c byte) uint64 {
	t.Helper()
	if _, err := v.WriteObject(name, bytes.NewReader(blockOf(c))); err != nil {
		t.Fatal(err)
	}
	infos, err := v.BlockInfos(name)
	if err != nil || len(infos) != 1 || !infos[0].Compressed {
		t.Fatalf("want one compressed block: %+v, %v", infos, err)
	}
	return infos[0].Addr
}

func TestDecodedCacheKeyIsThePayload(t *testing.T) {
	read := func(t *testing.T, v *Volume, name string, c byte) {
		t.Helper()
		got := make([]byte, 4096)
		if err := v.ReadAt(name, got, 0); err != nil || !bytes.Equal(got, blockOf(c)) {
			t.Fatalf("%s read back wrong: %v", name, err)
		}
	}
	t.Run("freed address reused", func(t *testing.T) {
		// DeleteObject frees the extent and first fit places different
		// content of the same stored length there: the read decodes the new
		// payload, never the old one's cached decode.
		v, err := New(cfg(block.Size4K, "gzip6", false))
		if err != nil {
			t.Fatal(err)
		}
		ctr := counted(v)
		addr := oneBlock(t, v, "old", 'a')
		read(t, v, "old", 'a')
		read(t, v, "old", 'a')
		if err := v.DeleteObject("old"); err != nil {
			t.Fatal(err)
		}
		if got := oneBlock(t, v, "new", 'x'); got != addr {
			t.Fatalf("the rewrite landed at %d, not the freed %d", got, addr)
		}
		read(t, v, "new", 'x')
		if hit, miss := decodeCounts(ctr); hit != 1 || miss != 2 {
			t.Fatalf("%d hits, %d misses; want the old block's 1 hit and a miss per payload", hit, miss)
		}
	})
	t.Run("same address in two volumes", func(t *testing.T) {
		// Two volumes that share nothing both store their first block at
		// address 0: each keeps its own decode.
		a, err := New(cfg(block.Size4K, "gzip6", true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(cfg(block.Size4K, "gzip6", true))
		if err != nil {
			t.Fatal(err)
		}
		ca, cb := counted(a), counted(b)
		if oneBlock(t, a, "o", 'a') != oneBlock(t, b, "o", 'x') {
			t.Fatal("the two first blocks are at different addresses")
		}
		for i := 0; i < 2; i++ {
			read(t, a, "o", 'a')
			read(t, b, "o", 'x')
		}
		for _, c := range []*metrics.CounterSet{ca, cb} {
			if hit, miss := decodeCounts(c); hit != 1 || miss != 1 {
				t.Fatalf("%d hits, %d misses; want one of each per volume", hit, miss)
			}
		}
	})
}

func TestDecodedCacheEvictsLeastRecentlyUsed(t *testing.T) {
	// One more distinct 64 KB block than the budget holds: the cache stays
	// within its budget, and what goes is the block read least recently,
	// not the one filled first.
	v, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const bs = 64 << 10
	n := decodeBudget/bs + 1
	var data []byte
	for i := 0; i < n; i++ {
		data = append(data, mkData(int64(1000+i), bs)...)
	}
	if _, err := v.WriteObject("o", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	infos, err := v.BlockInfos("o")
	if err != nil {
		t.Fatal(err)
	}
	for i, bi := range infos {
		if !bi.Compressed || int(bi.LogLen) != bs {
			t.Fatalf("block %d is not a compressed %d-byte block: %+v", i, bs, bi)
		}
	}
	ctr := counted(v)
	p := make([]byte, bs)
	// read reads block i and reports whether the cache served it.
	read := func(i int) bool {
		t.Helper()
		hit, _ := decodeCounts(ctr)
		if err := v.ReadAt("o", p, int64(i*bs)); err != nil || !bytes.Equal(p, data[i*bs:(i+1)*bs]) {
			t.Fatalf("block %d read back wrong: %v", i, err)
		}
		after, _ := decodeCounts(ctr)
		return after > hit
	}
	for i := 0; i < n; i++ {
		if read(i) {
			t.Fatalf("block %d hit before it was ever read", i)
		}
		decoded.mu.Lock()
		held := decoded.bytes
		decoded.mu.Unlock()
		if held > decodeBudget {
			t.Fatalf("after %d blocks the cache holds %d bytes, budget %d", i+1, held, decodeBudget)
		}
	}
	if read(0) {
		t.Fatal("block 0, the least recently used, survived a full cache")
	}
	// Block 0's refill evicted block 1. Block 2 is now the oldest: touch
	// it, and the next fill must evict block 3 instead.
	if !read(2) {
		t.Fatal("block 2 was evicted before older blocks")
	}
	if read(1) {
		t.Fatal("block 1 survived its eviction")
	}
	if !read(2) {
		t.Fatal("block 2, read recently, was evicted ahead of block 3")
	}
	if read(3) {
		t.Fatal("block 3, the least recently used, was kept")
	}
}

func TestDecodedCacheConcurrentRotRepairAndReuse(t *testing.T) {
	// Readers read hot blocks through replicas that alias one prepared
	// stream, while one goroutine rots and repairs a block on one replica
	// and another deletes and rewrites objects on the others (freeing
	// extents and reusing them). Every read returns the written bytes, or
	// ErrCorrupt for a range over the rotted block, or ErrNotFound for an
	// object between its delete and its rewrite. Run under -race.
	_, src, st := countedPair(t)
	ps := src.Prepare(st)
	const nReplicas = 3
	var replicas [nReplicas]*Volume
	ctr := metrics.NewCounterSet()
	for i := range replicas {
		v, err := New(src.Config())
		if err != nil {
			t.Fatal(err)
		}
		if err := v.ReceivePrepared(ps); err != nil {
			t.Fatal(err)
		}
		v.SetCounters(ctr)
		replicas[i] = v
	}
	want, err := src.ReadObject("base")
	if err != nil {
		t.Fatal(err)
	}
	infos, err := src.BlockInfos("base")
	if err != nil {
		t.Fatal(err)
	}
	rotIdx := slices.IndexFunc(infos, func(bi BlockInfo) bool { return bi.Compressed })
	bs := int64(src.Config().BlockSize)
	repair := want[int64(rotIdx)*bs : int64(rotIdx+1)*bs]
	generation := func(k int) []byte { return mkData(int64(500+k%3), 24*1024) }

	done := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				r := rng.Intn(nReplicas)
				off := rng.Int63n(int64(len(want)))
				p := make([]byte, rng.Int63n(min(int64(len(want))-off, 3*bs)+1))
				err := replicas[r].ReadAt("base", p, off)
				overRot := len(p) > 0 && off < int64(rotIdx+1)*bs && off+int64(len(p)) > int64(rotIdx)*bs
				switch {
				case errors.Is(err, ErrCorrupt) && r == 0 && overRot:
				case err != nil || !bytes.Equal(p, want[off:off+int64(len(p))]):
					t.Errorf("replica %d ReadAt base [%d,+%d): %v", r, off, len(p), err)
					return
				}
				name := fmt.Sprintf("churn%d", rng.Intn(2))
				got, err := replicas[1+rng.Intn(nReplicas-1)].ReadObject(name)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil || !(bytes.Equal(got, generation(0)) || bytes.Equal(got, generation(1)) || bytes.Equal(got, generation(2))) {
					t.Errorf("ReadObject %s: %v, or bytes no generation wrote", name, err)
					return
				}
			}
		}(g)
	}
	writers.Add(2)
	go func() { // rot and repair on replica 0
		defer writers.Done()
		for i := 0; i < 200; i++ {
			if err := replicas[0].CorruptStoredBlock("base", rotIdx, int64(i%50), 1<<(i%8)); err != nil {
				t.Error(err)
				return
			}
			if err := replicas[0].RepairBlock("base", rotIdx, repair); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // delete and rewrite on the other replicas
		defer writers.Done()
		for k := 0; k < 200; k++ {
			v, name := replicas[1+k%(nReplicas-1)], fmt.Sprintf("churn%d", k%2)
			if err := v.DeleteObject(name); err != nil && !errors.Is(err, ErrNotFound) {
				t.Error(err)
				return
			}
			if _, err := v.WriteObject(name, bytes.NewReader(generation(k))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	readers.Wait()
	if hit, _ := decodeCounts(ctr); hit == 0 {
		t.Fatal("no read was served by the cache")
	}
}
