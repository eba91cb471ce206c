package zvol

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/compress"
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
	if err := visitCopy(t, replicas[1], "base", make([]byte, len(want)), 0); err != nil {
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
				if err := visitCopy(t, c.v, "base", got, 0); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("read %d before the rot: %v", i, err)
				}
			}
			if hit, _ := decodeCounts(ctr); hit == 0 {
				t.Fatal("the cache served nothing: it is not hot")
			}
			if err := c.v.CorruptStoredBlock("base", idx, 3, 0x10); err != nil {
				t.Fatal(err)
			}
			if err := visitCopy(t, c.v, "base", got[:100], int64(idx*bs+50)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Visit over the rotted block under a hot cache: %v", err)
			}
			if err := visitCopy(t, c.v, "base", got, 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("whole Visit over the rotted block under a hot cache: %v", err)
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
				if err := visitCopy(t, other, "base", got, 0); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("a volume sharing the payload read the rot: %v", err)
				}
			}
			if err := c.v.RepairBlock("base", idx, intact); err != nil {
				t.Fatal(err)
			}
			if err := visitCopy(t, c.v, "base", got, 0); err != nil || !bytes.Equal(got, want) {
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
		if err := visitCopy(t, v, name, got, 0); err != nil || !bytes.Equal(got, blockOf(c)) {
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
		if err := visitCopy(t, v, "o", p, int64(i*bs)); err != nil || !bytes.Equal(p, data[i*bs:(i+1)*bs]) {
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
				err := visitCopy(t, replicas[r], "base", p, off)
				overRot := len(p) > 0 && off < int64(rotIdx+1)*bs && off+int64(len(p)) > int64(rotIdx)*bs
				switch {
				case errors.Is(err, ErrCorrupt) && r == 0 && overRot:
				case err != nil || !bytes.Equal(p, want[off:off+int64(len(p))]):
					t.Errorf("replica %d Visit base [%d,+%d): %v", r, off, len(p), err)
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

// gateCodec holds every decode until release is closed, announcing each
// on entered first, so a test can stop a cache fill mid-decode.
type gateCodec struct {
	compress.Codec
	entered chan struct{}
	release chan struct{}
}

func (g *gateCodec) DecompressInto(dst, src []byte) error {
	g.entered <- struct{}{}
	<-g.release
	return g.Codec.DecompressInto(dst, src)
}

// stormOneBlock has n goroutines read v's one-block object o through a
// cold cache. The first decode is held in the codec until the other n-1
// readers wait on its fill (a reader that decoded instead would never
// let the count get there); then it goes on. It returns each reader's
// error and how many decodes ran, checking the bytes of every read that
// succeeded against want.
func stormOneBlock(t *testing.T, v *Volume, addr uint64, n int, want []byte) (errs []error, decodes int) {
	t.Helper()
	payload, err := v.store.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	key := &payload[0]
	gate := &gateCodec{Codec: v.codec, entered: make(chan struct{}, n), release: make(chan struct{})}
	v.codec = gate
	defer func() { v.codec = gate.Codec }()
	errs = make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := make([]byte, len(want))
			if errs[i] = visitCopy(t, v, "o", got, 0); errs[i] == nil && !bytes.Equal(got, want) {
				t.Errorf("reader %d read back wrong bytes", i)
			}
		}(i)
	}
	<-gate.entered
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		decoded.mu.Lock()
		waiters := decoded.entries[key].waiters
		decoded.mu.Unlock()
		if waiters == n-1 {
			break
		}
		if time.Now().After(deadline) || len(gate.entered) > 0 {
			close(gate.release)
			wg.Wait()
			t.Fatalf("%d of %d readers wait on the fill, %d more decoded", waiters, n-1, len(gate.entered))
		}
	}
	close(gate.release)
	wg.Wait()
	return errs, 1 + len(gate.entered)
}

func TestDecodedCacheSingleFlight(t *testing.T) {
	// 32 readers of one compressed block through a cold cache: one decodes,
	// the other 31 wait for its fill and count as hits, and every read
	// returns the written bytes.
	v, err := New(cfg(block.Size4K, "gzip6", false))
	if err != nil {
		t.Fatal(err)
	}
	ctr := counted(v)
	addr := oneBlock(t, v, "o", 's')
	errs, decodes := stormOneBlock(t, v, addr, 32, blockOf('s'))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if hit, miss := decodeCounts(ctr); decodes != 1 || hit != 31 || miss != 1 {
		t.Fatalf("%d decodes, %d hits, %d misses; want 1 decode, 31 hits, 1 miss", decodes, hit, miss)
	}
}

func TestDecodedCacheFailedFillWaitersDecode(t *testing.T) {
	// A payload whose CRC32C matches its pointer but whose decode fails (a
	// broken gzip magic, with the checksum recomputed over it): the fill
	// fails, its entry is removed, and each of the 31 readers waiting on it
	// decodes the block itself and fails with ErrCorrupt. Nothing is cached
	// and no read counts as a hit.
	v, err := New(cfg(block.Size4K, "gzip6", false))
	if err != nil {
		t.Fatal(err)
	}
	ctr := counted(v)
	addr := oneBlock(t, v, "o", 'f')
	payload, err := v.store.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(payload)
	bad[0] ^= 0xff
	if err := v.store.Rewrite(addr, bad); err != nil {
		t.Fatal(err)
	}
	v.mu.Lock()
	v.objects["o"].ptrs[0].physHash = block.Checksum(bad)
	v.mu.Unlock()

	errs, decodes := stormOneBlock(t, v, addr, 32, blockOf('f'))
	for i, err := range errs {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("reader %d: %v, want ErrCorrupt", i, err)
		}
	}
	if hit, miss := decodeCounts(ctr); decodes != 32 || hit != 0 || miss != 32 {
		t.Fatalf("%d decodes, %d hits, %d misses; want every reader's own decode and no hit", decodes, hit, miss)
	}
	decoded.mu.Lock()
	_, left := decoded.entries[&payload[0]]
	decoded.mu.Unlock()
	if left {
		t.Fatal("the failed fill left its entry behind")
	}
}

func TestDecodedEntryNeverWrittenAfterFinish(t *testing.T) {
	// A hit lends the cache's entry itself, so an entry must never be
	// written once its fill has finished. Visitors lend ranges of an
	// object holding more distinct 64 KB blocks than the budget, half of
	// them straddling two blocks, from many goroutines, checking every lent
	// byte; churners meanwhile read the object front to back, forcing
	// fills and evictions. A watch on a fresh cache hashes each entry as it
	// is filled and again as it is evicted (or, for the entries still
	// cached, at the end), and the two must match. Run
	// under -race, any write to a lent entry is also a reported race.
	const bs = 64 << 10
	n := decodeBudget/bs + 8
	v, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	for i := 0; i < n; i++ {
		data = append(data, mkData(int64(2000+i), bs)...)
	}
	if _, err := v.WriteObject("o", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	sums := make(map[*decodedBlock]block.Hash) // under watched.mu, like the watch
	var filled, evicted int
	var rewritten []string
	watched := &decodeCache{entries: make(map[*byte]*decodedBlock)}
	watched.watch = func(e *decodedBlock, evicting bool) {
		sum := block.Checksum(e.data)
		if !evicting {
			sums[e] = sum
			filled++
			return
		}
		evicted++
		if sums[e] != sum {
			rewritten = append(rewritten, fmt.Sprintf("entry %p: %x at fill, %x at eviction", e, sums[e], sum))
		}
		delete(sums, e)
	}
	old := decoded
	decoded = watched
	defer func() { decoded = old }()

	const visitors, visits, churners, passes = 6, 150, 2, 2
	var wg sync.WaitGroup
	errs := make(chan error, visitors+churners)
	for g := 0; g < visitors; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < visits; i++ {
				off, size := int64(rng.Intn(n))*bs, int64(bs)
				if i%2 == 1 && off+bs < int64(len(data)) {
					off += bs / 2 // straddle two blocks
				}
				at := off
				err := v.Visit("o", off, size, func(p []byte) {
					if !bytes.Equal(p, data[at:at+int64(len(p))]) {
						errs <- fmt.Errorf("visit at %d lent wrong bytes at %d", off, at)
					}
					at += int64(len(p))
				})
				if err != nil || at != off+size {
					errs <- fmt.Errorf("visit at %d: lent %d bytes, %v", off, at-off, err)
					return
				}
			}
		}(int64(g))
	}
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := make([]byte, bs)
			for pass := 0; pass < passes; pass++ {
				for i := 0; i < n; i++ {
					if err := visitCopy(t, v, "o", p, int64(i)*bs); err != nil || !bytes.Equal(p, data[i*bs:(i+1)*bs]) {
						errs <- fmt.Errorf("churn read of block %d: %v", i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	watched.mu.Lock()
	defer watched.mu.Unlock()
	for e, sum := range sums { // the entries still cached
		if block.Checksum(e.data) != sum {
			rewritten = append(rewritten, fmt.Sprintf("cached entry %p", e))
		}
	}
	if len(rewritten) > 0 {
		t.Fatalf("%d entries changed after their fill: %s", len(rewritten), rewritten[0])
	}
	if filled <= n || evicted == 0 {
		t.Fatalf("%d fills and %d evictions; the run must refill and evict entries", filled, evicted)
	}
	t.Logf("%d fills, %d evictions", filled, evicted)
}
