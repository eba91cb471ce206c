package zvol

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/block"
)

// cfg64 is the paper's chosen configuration with a smaller block size to
// keep tests fast when they need many blocks.
func cfg(bs block.Size, codec string, dd bool) Config {
	return Config{BlockSize: bs, Codec: codec, Dedup: dd}
}

// mkData builds a payload of n bytes: a compressible repeated phrase with
// a seeded random tail and embedded zero runs, so tests exercise holes,
// dedup, and compression together.
func mkData(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	phrase := []byte("boot working set block content ")
	for i := 0; i < n; {
		switch rng.Intn(3) {
		case 0: // compressible
			k := copy(out[i:], phrase)
			i += k
		case 1: // random
			chunk := make([]byte, min(256, n-i))
			rng.Read(chunk)
			i += copy(out[i:], chunk)
		default: // hole
			i += min(1024, n-i)
		}
	}
	return out
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{BlockSize: 1000}); err == nil {
		t.Fatal("expected error for bad block size")
	}
	if _, err := New(Config{BlockSize: block.Size4K, Codec: "nope"}); err == nil {
		t.Fatal("expected error for unknown codec")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, c := range []Config{
		cfg(block.Size4K, "gzip6", true),
		cfg(block.Size4K, "gzip6", false),
		cfg(block.Size4K, "null", true),
		cfg(block.Size4K, "null", false),
		cfg(block.Size64K, "lz4", true),
		cfg(block.Size1K, "lzjb", true),
	} {
		v, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		data := mkData(1, 300*1024+777) // not block aligned
		if _, err := v.WriteObject("img", bytes.NewReader(data)); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		got, err := v.ReadObject("img")
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%+v: round trip mismatch", c)
		}
	}
}

func TestWriteDuplicateName(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", true))
	v.WriteObject("a", bytes.NewReader([]byte{1}))
	if _, err := v.WriteObject("a", bytes.NewReader([]byte{2})); !errors.Is(err, ErrExists) {
		t.Fatalf("want ErrExists, got %v", err)
	}
}

func TestReadMissing(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", true))
	if _, err := v.ReadObject("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestDedupIdenticalObjects(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", true))
	data := mkData(2, 64*1024)
	v.WriteObject("a", bytes.NewReader(data))
	before := v.Stats()
	v.WriteObject("b", bytes.NewReader(data))
	after := v.Stats()
	if after.DataBytes != before.DataBytes {
		t.Fatalf("identical object grew data: %d -> %d", before.DataBytes, after.DataBytes)
	}
	if after.UniqueBlocks != before.UniqueBlocks {
		t.Fatal("identical object added unique blocks")
	}
	if after.DedupRatio <= before.DedupRatio {
		t.Fatal("dedup ratio should rise")
	}
}

func TestZeroSuppression(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", true))
	zeros := make([]byte, 1<<20)
	v.WriteObject("sparse", bytes.NewReader(zeros))
	st := v.Stats()
	if st.DataBytes != 0 || st.UniqueBlocks != 0 {
		t.Fatalf("zero blocks were stored: %+v", st)
	}
	if st.ZeroBytes != 1<<20 {
		t.Fatalf("zero accounting wrong: %d", st.ZeroBytes)
	}
	got, err := v.ReadObject("sparse")
	if err != nil || !bytes.Equal(got, zeros) {
		t.Fatal("sparse object must read back as zeros")
	}
}

func TestDeleteFreesBlocks(t *testing.T) {
	for _, dd := range []bool{true, false} {
		v, _ := New(cfg(block.Size4K, "gzip6", dd))
		v.WriteObject("a", bytes.NewReader(mkData(3, 128*1024)))
		if err := v.DeleteObject("a"); err != nil {
			t.Fatal(err)
		}
		st := v.Stats()
		if st.DataBytes != 0 || st.Objects != 0 {
			t.Fatalf("dedup=%v: delete leaked %+v", dd, st)
		}
		if err := v.DeleteObject("a"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("double delete: %v", err)
		}
	}
}

func TestSharedBlocksSurviveDelete(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", true))
	data := mkData(4, 64*1024)
	v.WriteObject("a", bytes.NewReader(data))
	v.WriteObject("b", bytes.NewReader(data))
	v.DeleteObject("a")
	got, err := v.ReadObject("b")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal("shared blocks freed while still referenced")
	}
}

func TestReadBlock(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "gzip6", true))
	data := mkData(5, 40*1024)
	v.WriteObject("a", bytes.NewReader(data))
	for i := 0; i < 10; i++ {
		got, _, zero, err := v.ReadBlock("a", i)
		if err != nil {
			t.Fatal(err)
		}
		want := data[i*4096 : (i+1)*4096]
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d mismatch", i)
		}
		if zero != block.IsZero(want) {
			t.Fatalf("block %d zero flag wrong", i)
		}
	}
	if _, _, _, err := v.ReadBlock("a", 10); err == nil {
		t.Fatal("out of range read must fail")
	}
	if _, _, _, err := v.ReadBlock("a", -1); err == nil {
		t.Fatal("negative read must fail")
	}
}

func TestCompressionShrinksDisk(t *testing.T) {
	text := bytes.Repeat([]byte("deduplicate and compress the boot working set "), 3000)
	vNull, _ := New(cfg(block.Size4K, "null", true))
	vGz, _ := New(cfg(block.Size4K, "gzip6", true))
	vNull.WriteObject("a", bytes.NewReader(text))
	vGz.WriteObject("a", bytes.NewReader(text))
	if vGz.Stats().DataBytes >= vNull.Stats().DataBytes {
		t.Fatal("gzip volume should use less data space")
	}
}

func TestIncompressibleStoredRaw(t *testing.T) {
	// Random data fails the 12.5% gain threshold and must be stored raw
	// (physLen == logLen), like ZFS.
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, 64*1024)
	rng.Read(data)
	v, _ := New(cfg(block.Size4K, "gzip6", true))
	v.WriteObject("rand", bytes.NewReader(data))
	st := v.Stats()
	if st.DataBytes != int64(len(data)) {
		t.Fatalf("incompressible data stored at %d bytes, want %d", st.DataBytes, len(data))
	}
}

func TestLogicalStats(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "gzip6", true))
	v.WriteObject("a", bytes.NewReader(mkData(7, 100*1024)))
	v.WriteObject("b", bytes.NewReader(mkData(8, 50*1024)))
	st := v.Stats()
	if st.LogicalBytes != 150*1024 {
		t.Fatalf("logical %d want %d", st.LogicalBytes, 150*1024)
	}
	if st.Objects != 2 {
		t.Fatalf("objects %d", st.Objects)
	}
	if st.DiskBytes < st.DataBytes {
		t.Fatal("disk must include data")
	}
}

func TestObjectsListing(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", false))
	for _, n := range []string{"c", "a", "b"} {
		v.WriteObject(n, bytes.NewReader([]byte{1}))
	}
	got := v.Objects()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("objects %v want %v", got, want)
		}
	}
	if !v.HasObject("b") || v.HasObject("zz") {
		t.Fatal("HasObject wrong")
	}
	if _, err := v.Object("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Object("zz"); err == nil {
		t.Fatal("missing object must error")
	}
}

// errReader fails partway through a stream.
type errReader struct{ n int }

func (e *errReader) Read(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, errors.New("disk on fire")
	}
	k := min(e.n, len(p))
	for i := 0; i < k; i++ {
		p[i] = 0xAB
	}
	e.n -= k
	return k, nil
}

func TestWriteFailureRollsBack(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", true))
	_, err := v.WriteObject("bad", &errReader{n: 20 * 1024})
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatal("expected write failure")
	}
	st := v.Stats()
	if st.Objects != 0 || st.DataBytes != 0 || st.UniqueBlocks != 0 {
		t.Fatalf("failed write leaked state: %+v", st)
	}
	// The reader fails while new blocks are queued for the compress
	// helpers: in the first window (six read, every one queued) and in
	// the second (the first window's blocks already placed). The volume
	// must be as it was, and no helper left running.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, blocks := range []int{6, writeWindow + 6} {
		v, _ := New(cfg(block.Size4K, "gzip6", true))
		if _, err := v.WriteObject("kept", bytes.NewReader(mkData(1, 8*4096))); err != nil {
			t.Fatal(err)
		}
		state, stats, settled := snapshotState(t, v), v.Stats(), runtime.NumGoroutine()
		r := io.MultiReader(bytes.NewReader(distinctBlocks(blocks, 4096)), &errReader{})
		if _, err := v.WriteObject("bad", r); err == nil {
			t.Fatalf("%d blocks: expected write failure", blocks)
		}
		if !sameState(state, snapshotState(t, v)) || v.Stats() != stats {
			t.Fatalf("%d blocks: failed write changed the volume: %+v, was %+v", blocks, v.Stats(), stats)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > settled; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d blocks: %d goroutines after the failed write, %d before", blocks, runtime.NumGoroutine(), settled)
			}
		}
	}
}

// distinctBlocks is n blocks of size bytes, no two alike and none zero.
func distinctBlocks(n, size int) []byte {
	var out []byte
	for k := 0; k < n; k++ {
		b := mkData(int64(100+k), size)
		b[0] = 1
		out = append(out, b...)
	}
	return out
}

// TestWriteRepeatInWindowAndShortTail writes one window holding a block
// twice, then a hole and a short tail. The repeat is compressed once and
// placed as a reference to the first copy; without dedup it is a block of
// its own. Either way the layout and Stats are those of the serial write
// (GOMAXPROCS 1, no helper), and the object reads back whole.
func TestWriteRepeatInWindowAndShortTail(t *testing.T) {
	const bs = 4096
	blocks := distinctBlocks(3, bs)
	a, b, c := blocks[:bs], blocks[bs:2*bs], blocks[2*bs:]
	data := slices.Concat(a, b, a, c, make([]byte, bs), c[:100])
	for _, dedup := range []bool{true, false} {
		write := func(procs int) (*Volume, []BlockInfo) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			v, _ := New(cfg(bs, "gzip6", dedup))
			if _, err := v.WriteObject("o", bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			infos, err := v.BlockInfos("o")
			if err != nil {
				t.Fatal(err)
			}
			return v, infos
		}
		serial, want := write(1)
		v, got := write(4)
		if !slices.Equal(got, want) || v.Stats() != serial.Stats() {
			t.Fatalf("dedup=%v: parallel write placed %+v (%+v), serial %+v (%+v)",
				dedup, got, v.Stats(), want, serial.Stats())
		}
		if len(got) != 6 || !got[4].Zero || got[5].LogLen != 100 || (got[2].Addr == got[0].Addr) != dedup {
			t.Fatalf("dedup=%v: layout %+v", dedup, got)
		}
		if unique, want := v.Stats().UniqueBlocks, int64(4); dedup && unique != want {
			t.Fatalf("%d unique blocks, want %d", unique, want)
		}
		if back, err := v.ReadObject("o"); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("dedup=%v: read back %d bytes, %v", dedup, len(back), err)
		}
	}
}
