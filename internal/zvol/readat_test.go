package zvol

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/compress"
	"repro/internal/corpus"
)

// rangePayload builds an object that exercises every block kind a range
// read can meet: compressible blocks, incompressible ones (stored raw
// under the minimum-gain rule), runs of whole-block holes, a block that
// is half zeros, and a short tail block.
func rangePayload(seed int64, bs int) []byte {
	rng := rand.New(rand.NewSource(seed))
	text := bytes.Repeat([]byte("boot working set block content "), bs/31+1)[:bs]
	noise := func() []byte {
		b := make([]byte, bs)
		rng.Read(b)
		return b
	}
	var out []byte
	out = append(out, text...)
	out = append(out, noise()...)
	out = append(out, make([]byte, 2*bs)...) // two holes
	out = append(out, text[:bs/2]...)
	out = append(out, make([]byte, bs/2)...) // half-zero block: not a hole
	out = append(out, noise()...)
	out = append(out, make([]byte, bs)...) // hole
	out = append(out, text...)             // dedups against block 0
	out = append(out, noise()[:bs/3]...)   // short tail
	return out
}

const fill = 0xEE // what a range buffer holds before the read

func filled(n int) []byte { return bytes.Repeat([]byte{fill}, n) }

func TestReadAtMatchesReadObject(t *testing.T) {
	for _, codec := range compress.Names() {
		for _, bs := range []block.Size{block.Size4K, block.Size64K} {
			t.Run(fmt.Sprintf("%s/%s", codec, bs), func(t *testing.T) {
				v, err := New(cfg(bs, codec, true))
				if err != nil {
					t.Fatal(err)
				}
				want := rangePayload(7, int(bs))
				if _, err := v.WriteObject("o", bytes.NewReader(want)); err != nil {
					t.Fatal(err)
				}
				infos, err := v.BlockInfos("o")
				if err != nil {
					t.Fatal(err)
				}
				var holes, packed, raw int
				for _, bi := range infos {
					switch {
					case bi.Zero:
						holes++
					case bi.Compressed:
						packed++
					default:
						raw++
					}
				}
				if holes != 3 || raw == 0 || (codec != "null" && packed == 0) {
					t.Fatalf("payload misses a block kind: %d holes, %d compressed, %d raw", holes, packed, raw)
				}
				whole, err := v.ReadObject("o")
				if err != nil || !bytes.Equal(whole, want) {
					t.Fatalf("ReadObject diverged: %v", err)
				}

				b, size := int64(bs), int64(len(want))
				ranges := [][2]int64{
					{0, 0}, {0, 1}, {0, b}, {0, size}, // from the start
					{b, b}, {b, 3 * b}, // aligned whole blocks
					{b - 1, 2}, {b / 2, b}, {b + 7, 2*b + 11}, // unaligned, block-crossing
					{2 * b, 2 * b}, {2*b + 5, b}, {b + b/2, b}, // inside, and into, the holes
					{4*b + b/4, b / 2},                                            // the half-zero block
					{size - b/3, b / 3}, {size - b/3 - 9, b/3 + 9}, {size - 1, 1}, // the short tail
					{size, 0}, {size / 2, 0}, // zero-length
				}
				rng := rand.New(rand.NewSource(int64(bs)))
				for i := 0; i < 200; i++ {
					off := rng.Int63n(size + 1)
					ranges = append(ranges, [2]int64{off, rng.Int63n(min(size-off, 3*b) + 1)})
				}
				for _, r := range ranges {
					off, n := r[0], r[1]
					p := filled(int(n))
					if err := v.ReadAt("o", p, off); err != nil {
						t.Fatalf("ReadAt [%d,+%d): %v", off, n, err)
					}
					if !bytes.Equal(p, want[off:off+n]) {
						t.Fatalf("ReadAt [%d,+%d) differs from ReadObject", off, n)
					}
				}

				// Outside the object (or no such object): an error, p untouched.
				for _, r := range [][2]int64{{-1, 1}, {-1, 0}, {size, 1}, {size + 1, 0}, {size - 1, 2}, {0, size + 1}} {
					p := filled(int(r[1]))
					err := v.ReadAt("o", p, r[0])
					if err == nil || errors.Is(err, ErrCorrupt) {
						t.Fatalf("ReadAt [%d,+%d) of a %d-byte object: %v", r[0], r[1], size, err)
					}
					if !bytes.Equal(p, filled(len(p))) {
						t.Fatalf("failed ReadAt [%d,+%d) wrote to p", r[0], r[1])
					}
				}
				p := filled(8)
				if err := v.ReadAt("nope", p, 0); !errors.Is(err, ErrNotFound) || !bytes.Equal(p, filled(8)) {
					t.Fatalf("ReadAt of an unknown object: %v", err)
				}
			})
		}
	}
}

func TestReadAtVerifiesPerRange(t *testing.T) {
	// Rot one compressed and one raw block. Every range clear of them is
	// still served and correct; every range touching one fails its
	// checksum; the whole-object read fails.
	const bs = 4096
	v, err := New(cfg(bs, "gzip6", true))
	if err != nil {
		t.Fatal(err)
	}
	want := rangePayload(9, bs)
	if _, err := v.WriteObject("o", bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	infos, _ := v.BlockInfos("o")
	rotted := map[int]bool{}
	for i, bi := range infos {
		// Block 0 is compressed and shared with block 7 through the DDT;
		// block 5 is incompressible and stored raw.
		if i == 0 || i == 5 {
			if bi.Zero || bi.Compressed != (i == 0) {
				t.Fatalf("block %d is not the kind the test expects: %+v", i, bi)
			}
			if err := v.CorruptStoredBlock("o", i, int64(bi.PhysLen)/2, 0x40); err != nil {
				t.Fatal(err)
			}
			rotted[i] = true
		}
	}
	rotted[7] = true // dedup alias of block 0's payload
	if _, err := v.ReadObject("o"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("whole-object read of a rotted object: %v", err)
	}
	size := int64(len(want))
	for off := int64(0); off < size; off += bs / 2 {
		for _, n := range []int64{1, bs / 2, bs, bs + 1, 3 * bs} {
			n = min(n, size-off)
			touches := false
			for i := off / bs; i <= (off+n-1)/bs; i++ {
				touches = touches || rotted[int(i)]
			}
			p := filled(int(n))
			err := v.ReadAt("o", p, off)
			switch {
			case touches && !errors.Is(err, ErrCorrupt):
				t.Fatalf("ReadAt [%d,+%d) touches a rotted block: %v", off, n, err)
			case !touches && (err != nil || !bytes.Equal(p, want[off:off+n])):
				t.Fatalf("ReadAt [%d,+%d) is clear of rot yet failed or differs: %v", off, n, err)
			}
		}
	}
}

func TestRawBlockRotIsCaughtByThePayloadChecksum(t *testing.T) {
	// A block stored uncompressed is its logical data, yet its pointer
	// keeps two checksums: the payload's CRC32C, which every read checks,
	// and the logical SHA-256 dedup keys on. Rot must surface as
	// ErrCorrupt on every read path and in the scrub.
	for _, codec := range []string{"null", "gzip6"} {
		v, err := New(cfg(block.Size4K, codec, true))
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 3*4096) // incompressible: stored raw under either codec
		rand.New(rand.NewSource(3)).Read(data)
		obj, err := v.WriteObject("o", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range obj.ptrs {
			chunk := data[i*4096 : (i+1)*4096]
			if p.compressed || p.physHash != block.Checksum(chunk) || p.hash != block.HashOf(chunk) {
				t.Fatalf("%s: raw block %d: compressed=%v, checksums %v/%v", codec, i, p.compressed,
					p.physHash == block.Checksum(chunk), p.hash == block.HashOf(chunk))
			}
		}
		if err := v.CorruptStoredBlock("o", 1, 17, 0x01); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := v.ReadBlock("o", 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: ReadBlock of a rotted raw block: %v", codec, err)
		}
		if err := v.ReadAt("o", make([]byte, 10), 4096+12); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: ReadAt inside a rotted raw block: %v", codec, err)
		}
		if _, err := v.ReadObject("o"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: ReadObject over a rotted raw block: %v", codec, err)
		}
		if got, _, _, err := v.ReadBlock("o", 0); err != nil || !bytes.Equal(got, data[:4096]) {
			t.Fatalf("%s: intact neighbour unreadable: %v", codec, err)
		}
		rep := v.Scrub()
		if rep.CorruptBlocks != 1 || len(rep.Damaged) != 1 || rep.Damaged[0] != (BlockRef{Object: "o", Index: 1}) {
			t.Fatalf("%s: scrub report: %+v", codec, rep)
		}
	}
}

// rawAndPacked writes one object under gzip6 whose block 0 is stored
// compressed and block 1 raw (incompressible), and returns it with its
// content.
func rawAndPacked(t *testing.T) (*Volume, *Object, []byte) {
	t.Helper()
	v, err := New(cfg(block.Size4K, "gzip6", true))
	if err != nil {
		t.Fatal(err)
	}
	data := rangePayload(5, 4096)[:2*4096]
	obj, err := v.WriteObject("o", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !obj.ptrs[0].compressed || obj.ptrs[1].compressed || obj.ptrs[1].zero {
		t.Fatalf("want block 0 compressed and block 1 raw, got %+v", obj.ptrs)
	}
	return v, obj, data
}

func TestScrubChecksTheLogicalHashEndToEnd(t *testing.T) {
	// A read stops at the payload's CRC32C and an exact-length decode; the
	// pointer's logical SHA-256 is Scrub's to check. A pointer whose
	// logical hash no longer matches its intact payload (damage to the
	// pointer itself) still reads back what was written, but the scrub
	// reports the block corrupt, and a repair cannot paper over it: the
	// true bytes fail the damaged hash with ErrBadRepair.
	for i, kind := range []string{"compressed", "raw"} {
		v, obj, data := rawAndPacked(t)
		obj.ptrs[i].hash[0] ^= 1
		want := data[i*4096 : (i+1)*4096]
		if got, _, _, err := v.ReadBlock("o", i); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: intact payload under a damaged pointer: %v", kind, err)
		}
		rep := v.Scrub()
		if rep.CorruptBlocks != 1 || len(rep.Damaged) != 1 || rep.Damaged[0] != (BlockRef{Object: "o", Index: i}) {
			t.Fatalf("%s: scrub missed a logical-hash mismatch: %+v", kind, rep)
		}
		if err := v.RepairBlock("o", i, want); !errors.Is(err, ErrBadRepair) {
			t.Fatalf("%s: repair against a damaged logical hash: %v", kind, err)
		}
	}
}

func TestReadChecksTheStoredLength(t *testing.T) {
	// A pointer whose physLen disagrees with what the store holds at its
	// address fails on the length, before any checksum, compressed or raw,
	// on every read path.
	for i, kind := range []string{"compressed", "raw"} {
		for _, d := range []int32{-1, 1} {
			v, obj, _ := rawAndPacked(t)
			obj.ptrs[i].physLen += d
			_, _, _, err := v.ReadBlock("o", i)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "pointer says") {
				t.Fatalf("%s, physLen off by %d: ReadBlock returned %v", kind, d, err)
			}
			if err := v.ReadAt("o", make([]byte, 100), int64(i)*4096+7); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s, physLen off by %d: ReadAt returned %v", kind, d, err)
			}
			if rep := v.Scrub(); rep.CorruptBlocks != 1 {
				t.Fatalf("%s, physLen off by %d: scrub %+v", kind, d, rep)
			}
		}
	}
}

func TestReadAtConcurrent(t *testing.T) {
	// Range reads share the pooled decode state and the store's lock with
	// each other and with writers; run under -race.
	v, err := New(cfg(block.Size4K, "gzip6", true))
	if err != nil {
		t.Fatal(err)
	}
	want := rangePayload(21, 4096)
	if _, err := v.WriteObject("o", bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				off := rng.Int63n(int64(len(want)))
				p := make([]byte, rng.Int63n(min(int64(len(want))-off, 3*4096)+1))
				if err := v.ReadAt("o", p, off); err != nil || !bytes.Equal(p, want[off:off+int64(len(p))]) {
					t.Errorf("reader %d: ReadAt [%d,+%d): err %v", g, off, len(p), err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // a writer churning other objects meanwhile
		defer wg.Done()
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("churn%d", i)
			if _, err := v.WriteObject(name, bytes.NewReader(mkData(int64(i), 20000))); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			if i%2 == 1 {
				if err := v.DeleteObject(name); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
}

func TestReadNeverRacesDeleteObject(t *testing.T) {
	// A writer deletes and rewrites one object while readers read it
	// whole. Raw blocks of one length and no dedup make every rewrite
	// reuse the extents the delete freed, at the same length. A read
	// holds the volume from lookup to last decode, so it sees one
	// version whole or none (ErrNotFound) — never a reused extent, which
	// would fail its checksum (ErrCorrupt) or be unallocated.
	const size = 4 * 4096
	v, err := New(cfg(block.Size4K, "null", false))
	if err != nil {
		t.Fatal(err)
	}
	version := func(k int) []byte { return bytes.Repeat([]byte{byte(1 + k%255)}, size) }
	if _, err := v.WriteObject("o", bytes.NewReader(version(0))); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(done)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := make([]byte, size)
			for {
				select {
				case <-done:
					return
				default:
				}
				err := v.ReadAt("o", p, 0)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil || !bytes.Equal(p, bytes.Repeat(p[:1], size)) {
					t.Errorf("read racing delete: err %v, bytes %d..%d", err, p[0], p[size-1])
					return
				}
			}
		}()
	}
	for k := 1; k <= 2000; k++ {
		if err := v.DeleteObject("o"); err != nil {
			t.Fatal(err)
		}
		if _, err := v.WriteObject("o", bytes.NewReader(version(k))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadObjectAllocatesOnlyItsResult(t *testing.T) {
	// The read path decodes into the result slice: a 1 MB read on the
	// paper's configuration may allocate the result plus at most 15%
	// (codec-internal state), where it used to allocate 4.9 MB.
	if raceEnabled {
		t.Skip("sync.Pool drops pooled codec state at random under the race detector")
	}
	v, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	payload := mkData(100, 1<<20)
	if _, err := v.WriteObject("o", bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, err := v.ReadObject("o"); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the codec's pools
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.15 * float64(len(payload)); perRead > limit {
		t.Fatalf("a %d-byte ReadObject allocated %.0f bytes, limit %.0f", len(payload), perRead, limit)
	}
}

func TestReadAtNeverServesABitRottedBlock(t *testing.T) {
	// The volume-level half of compress's bit-rot test, over every way the
	// deployment stores a block: gzip6, lz4 and lzjb payloads and a raw
	// one. Each rot — one flip of every bit of the stored payload's first
	// 256 bytes (codec header, first tokens or code lengths) and of its
	// last 8 (gzip's trailer), of a seeded sample of 256 body bits, and a
	// seeded burst of 32 bits — made in the store, must surface from
	// ReadAt as ErrCorrupt, whole-block and part-block reads alike, never
	// as data. This is what lets a read skip the logical re-hash.
	repo, err := corpus.New(corpus.DefaultSpec().Scale(32.0/607, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	// The first cache block even lzjb, the weakest codec, stores
	// compressed under the minimum-gain rule.
	var text []byte
	errFound := errors.New("found")
	err = repo.Images[0].CacheBlocks(block.Size64K, func(_ int64, b []byte, zero bool) error {
		if zero || len(compress.LZJB{}.Compress(b)) > len(b)*7/8 {
			return nil
		}
		text = bytes.Clone(b)
		return errFound
	})
	if err != errFound {
		t.Fatalf("no cache block lzjb compresses: %v", err)
	}
	noise := make([]byte, block.Size64K)
	rand.New(rand.NewSource(29)).Read(noise)
	for _, c := range []struct {
		name, codec string
		data        []byte
	}{
		{"gzip6", "gzip6", text},
		{"lz4", "lz4", text},
		{"lzjb", "lzjb", text},
		{"raw", "gzip6", noise}, // incompressible: stored as is
	} {
		t.Run(c.name, func(t *testing.T) {
			v, err := New(cfg(block.Size64K, c.codec, true))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.WriteObject("o", bytes.NewReader(c.data)); err != nil {
				t.Fatal(err)
			}
			infos, err := v.BlockInfos("o")
			if err != nil || len(infos) != 1 || infos[0].Compressed != (c.name != "raw") {
				t.Fatalf("want one block stored %s, got %+v, %v", c.name, infos, err)
			}
			physLen := int(infos[0].PhysLen)
			// A rot is a set of bit flips; applying it twice undoes it.
			var rots [][]int
			for bit := 0; bit < 256*8; bit++ {
				rots = append(rots, []int{bit})
			}
			for bit := (physLen - 8) * 8; bit < physLen*8; bit++ {
				rots = append(rots, []int{bit})
			}
			rng := rand.New(rand.NewSource(23))
			for k := 0; k < 256; k++ {
				rots = append(rots, []int{256*8 + rng.Intn((physLen-8-256)*8)})
			}
			for k := 0; k < 64; k++ {
				start := rng.Intn(physLen*8 - 32)
				pattern := rng.Uint32() | 1 | 1<<31 // spans exactly 32 bits
				var burst []int
				for b := 0; b < 32; b++ {
					if pattern&(1<<b) != 0 {
						burst = append(burst, start+b)
					}
				}
				rots = append(rots, burst)
			}
			flip := func(bits []int) {
				masks := map[int]byte{}
				for _, bit := range bits {
					masks[bit/8] ^= 1 << (bit % 8)
				}
				for off, xor := range masks {
					if err := v.CorruptStoredBlock("o", 0, int64(off), xor); err != nil {
						t.Fatal(err)
					}
				}
			}
			whole, part := make([]byte, len(c.data)), make([]byte, 1000)
			for _, bits := range rots {
				flip(bits)
				if err := v.ReadAt("o", whole, 0); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("payload bits %v flipped: whole-block ReadAt returned %v, want ErrCorrupt", bits, err)
				}
				if err := v.ReadAt("o", part, 4321); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("payload bits %v flipped: part-block ReadAt returned %v, want ErrCorrupt", bits, err)
				}
				flip(bits)
			}
			if err := v.ReadAt("o", whole, 0); err != nil || !bytes.Equal(whole, c.data) {
				t.Fatalf("every flip undone, yet the block reads back wrong: %v", err)
			}
		})
	}
}
