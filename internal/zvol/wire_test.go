package zvol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/block"
)

// mkStream builds a source volume with two snapshots and returns its
// incremental stream.
func mkStream(t testing.TB) *Stream {
	t.Helper()
	src, err := New(cfg(4096, "gzip6", true))
	if err != nil {
		t.Fatal(err)
	}
	src.WriteObject("a", bytes.NewReader(mkData(50, 70*1024)))
	src.Snapshot("s1", day(0))
	src.WriteObject("b", bytes.NewReader(mkData(51, 50*1024)))
	src.DeleteObject("a")
	src.Snapshot("s2", day(1))
	st, err := src.Send("s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestWireRoundTrip(t *testing.T) {
	st := mkStream(t)
	var buf bytes.Buffer
	n, err := st.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	for _, s := range []*Stream{st, {Created: day(0)}} {
		wrote, err := s.Encode(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.WireSize(); got != wrote {
			t.Fatalf("WireSize says %d bytes, Encode wrote %d", got, wrote)
		}
	}
	got, err := DecodeStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FromSnap != st.FromSnap || got.ToSnap != st.ToSnap {
		t.Fatalf("snapshot names lost: %+v", got)
	}
	if !got.Created.Equal(st.Created) {
		t.Fatalf("created %v != %v", got.Created, st.Created)
	}
	if !reflect.DeepEqual(got.Deletes, st.Deletes) {
		t.Fatalf("deletes %v != %v", got.Deletes, st.Deletes)
	}
	// The sent stream ships stored payloads; the wire carries them
	// inflated, the logical bytes the sender wrote.
	var want [][]byte
	if err := st.eachBlock(func(b []byte) error { want = append(want, bytes.Clone(b)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != len(want) || len(want) == 0 {
		t.Fatalf("blocks %d != %d", len(got.Blocks), len(want))
	}
	for i := range want {
		if !bytes.Equal(got.Blocks[i], want[i]) || block.HashOf(want[i]) != st.sent[i].Hash {
			t.Fatalf("block %d differs", i)
		}
	}
	if !reflect.DeepEqual(got.Upserts, st.Upserts) {
		t.Fatal("upserts differ")
	}
}

// WireSize walks the same layout as Encode, in a coder that stays on
// its stack: it runs once per registration and allocates nothing.
func TestWireSizeAllocatesNothing(t *testing.T) {
	st := mkStream(t)
	if got := testing.AllocsPerRun(100, func() { st.WireSize() }); got != 0 {
		t.Fatalf("WireSize made %.0f allocations, want 0", got)
	}
}

func TestWireDecodedStreamIsReceivable(t *testing.T) {
	// End-to-end: full stream + incremental stream survive the wire and
	// apply cleanly on a replica.
	src, _ := New(cfg(4096, "gzip6", true))
	dataA := mkData(60, 90*1024)
	dataB := mkData(61, 40*1024)
	src.WriteObject("a", bytes.NewReader(dataA))
	src.Snapshot("s1", day(0))
	src.WriteObject("b", bytes.NewReader(dataB))
	src.Snapshot("s2", day(1))

	dst, _ := New(cfg(4096, "gzip6", true))
	for _, pair := range [][2]string{{"", "s1"}, {"s1", "s2"}} {
		st, err := src.Send(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := st.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeStream(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Receive(decoded); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string][]byte{"a": dataA, "b": dataB} {
		got, err := dst.ReadObject(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("replica %s diverged after wire transfer: %v", name, err)
		}
	}
}

func TestWireDetectsCorruption(t *testing.T) {
	st := mkStream(t)
	var buf bytes.Buffer
	if _, err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		mut := append([]byte(nil), pristine...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		if _, err := DecodeStream(bytes.NewReader(mut)); err == nil {
			// A flip inside a block payload may decode structurally but
			// must then fail the CRC — err == nil means the checksum
			// missed it.
			t.Fatalf("trial %d: corruption not detected", trial)
		}
	}
}

func TestWireDetectsTruncation(t *testing.T) {
	st := mkStream(t)
	var buf bytes.Buffer
	st.Encode(&buf)
	data := buf.Bytes()
	for cut := 0; cut < len(data)-1; cut += 97 {
		if _, err := DecodeStream(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("????"),
		[]byte("SQRL\xFF\xFF"), // bad version
		bytes.Repeat([]byte{0xFF}, 64),
	}
	for i, c := range cases {
		if _, err := DecodeStream(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestSentStreamWireBytesArePinned(t *testing.T) {
	// testdata/send_{full,incremental}.golden hold what Encode wrote for
	// these two sends when Send still inflated every shipped block into
	// the stream. Send now ships the stored payloads and Encode inflates
	// them as it writes: the wire bytes, and so DiffBytes and every
	// figure that charges them, must not move. The sends carry every
	// record kind: blocks stored compressed and raw (a short last block
	// among them), a hash-only reference, a hole and a delete.
	src, err := New(cfg(4096, "gzip6", true))
	if err != nil {
		t.Fatal(err)
	}
	base := mkData(60, 24*1024)
	noise := make([]byte, 8*1024) // incompressible: stored raw
	rand.New(rand.NewSource(61)).Read(noise)
	for _, w := range []struct {
		name string
		data []byte
		snap string
	}{
		{"a", base, ""},
		{"noise", noise[1000:], "s1"},
		{"b", append(base[:8192:8192], make([]byte, 4096)...), ""},
		{"c", append(mkData(62, 8*1024), noise[:1000]...), ""},
	} {
		if _, err := src.WriteObject(w.name, bytes.NewReader(w.data)); err != nil {
			t.Fatal(err)
		}
		if w.snap != "" {
			if _, err := src.Snapshot(w.snap, day(0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := src.DeleteObject("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Snapshot("s2", day(1)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ golden, from string }{{"send_full", ""}, {"send_incremental", "s1"}} {
		st, err := src.Send(c.from, "s2")
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[bool]int{}
		for _, pb := range st.sent {
			kinds[pb.Compressed]++
		}
		if kinds[true] == 0 || kinds[false] == 0 {
			t.Fatalf("%s ships %d compressed and %d raw blocks, want both kinds", c.golden, kinds[true], kinds[false])
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		n, err := st.Encode(&got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) || n != st.WireSize() || n != int64(len(want)) {
			t.Fatalf("%s: Encode wrote %d bytes (WireSize %d), the pinned stream is %d; equal: %v",
				c.golden, n, st.WireSize(), len(want), bytes.Equal(got.Bytes(), want))
		}
	}
}

// seedSource is the volume behind seedStream: s1 holds object a, and s2
// adds b (a's first block, then a hole) and c and deletes a.
func seedSource(t testing.TB) *Volume {
	src, err := New(cfg(block.Size1K, "gzip6", true))
	if err != nil {
		t.Fatal(err)
	}
	base := mkData(50, 2*1024)
	src.WriteObject("a", bytes.NewReader(base))
	src.Snapshot("s1", day(0))
	src.WriteObject("b", bytes.NewReader(append(base[:1024:1024], make([]byte, 1024)...)))
	src.WriteObject("c", bytes.NewReader(mkData(51, 300)))
	src.DeleteObject("a")
	src.Snapshot("s2", day(1))
	return src
}

// encoded is what Encode writes for st.
func encoded(t testing.TB, st *Stream) []byte {
	var wire bytes.Buffer
	if _, err := st.Encode(&wire); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// seedStream is a real incremental Send carrying every record kind — a
// delete, shipped blocks, a hash-only reference and a hole — kept under
// a KB so the fuzzer's mutations and minimization stay fast.
func seedStream(t testing.TB) []byte {
	st, err := seedSource(t).Send("s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	if b := st.Upserts[0].Ptrs; len(st.Deletes) != 1 || len(st.sent) != 1 || b[0].Payload != -1 || !b[1].Zero {
		t.Fatalf("seed stream lacks a record kind: %+v", st)
	}
	return encoded(t, st)
}

// seedReceiver is a new volume holding s1, seedStream's origin,
// received in full from src, a seedSource.
func seedReceiver(t testing.TB, src *Volume) *Volume {
	dst, err := New(cfg(block.Size1K, "gzip6", true))
	if err != nil {
		t.Fatal(err)
	}
	st, err := src.Send("", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Receive(st); err != nil {
		t.Fatal(err)
	}
	return dst
}

// lyingStreams are seedStream with a pointer whose length lies, each
// sealed with a valid CRC. In "negative" and "halved", object b's
// hash-only pointer (a 1 KB block s1 holds) claims −100 or 512 bytes,
// and the hole after it is grown by what the pointer lost, so b's size
// still sums: a receiver that took the negative length planted a pointer
// Scrub panicked on, one that took the halved length planted a block
// every read and Scrub called corrupt. In "huge-holes", b gains four
// holes of math.MaxInt32 bytes, longer than any block a writer makes,
// and its size grows to match: a receiver that took it held an 8 GiB
// object that ReadObject would allocate whole.
func lyingStreams(t testing.TB) map[string][]byte {
	out := map[string][]byte{}
	for name, lie := range map[string]func(b *StreamObject){
		"negative": func(b *StreamObject) { shrinkRef(b, -100) },
		"halved":   func(b *StreamObject) { shrinkRef(b, 512) },
		"huge-holes": func(b *StreamObject) {
			for range 4 {
				b.Ptrs = append(b.Ptrs, StreamPtr{Zero: true, LogLen: math.MaxInt32, Payload: -1})
				b.Size += math.MaxInt32
			}
		},
	} {
		st, err := DecodeStream(bytes.NewReader(seedStream(t)))
		if err != nil {
			t.Fatal(err)
		}
		lie(&st.Upserts[0])
		out[name] = encoded(t, st)
	}
	return out
}

// shrinkRef makes b's first pointer claim logLen bytes and grows the
// hole after it by the difference.
func shrinkRef(b *StreamObject, logLen int32) {
	p := b.Ptrs
	p[1].LogLen += p[0].LogLen - logLen
	p[0].LogLen = logLen
}

func TestReceiveRefusesPointersWhoseLengthsLie(t *testing.T) {
	src := seedSource(t)
	for name, wire := range lyingStreams(t) {
		st, err := DecodeStream(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dst := seedReceiver(t, src)
		before := snapshotState(t, dst)
		if err := dst.Receive(st); !errors.Is(err, ErrBadStream) {
			t.Fatalf("%s: Receive = %v, want ErrBadStream", name, err)
		}
		if !sameState(before, snapshotState(t, dst)) {
			t.Fatalf("%s: a refused receive changed the volume", name)
		}
		if rep := dst.Scrub(); rep.CorruptBlocks+rep.MissingBlocks != 0 {
			t.Fatalf("%s: Scrub after the refusal: %+v", name, rep)
		}
	}
}

// claimBlock is the start of a stream whose one block claims n bytes:
// an empty stream's header and delete count, then the block count and
// the claimed length, and nothing of the block itself.
func claimBlock(t testing.TB, n uint32) []byte {
	var empty bytes.Buffer
	if _, err := (&Stream{ToSnap: "s1", Created: day(0)}).Encode(&empty); err != nil {
		t.Fatal(err)
	}
	head := empty.Bytes()[:empty.Len()-12] // less block count, upsert count, trailer
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(head, 1), n)
}

func TestWireHostileLengthCostsOnlyItsInput(t *testing.T) {
	// A few dozen bytes claiming a block longer than any volume writes
	// must be refused before the decoder allocates what they claim.
	for _, n := range []uint32{maxWireBlock + 1, math.MaxUint32} {
		in := claimBlock(t, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeStream(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("a %d-byte claim with no bytes behind it decoded", n)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
			t.Fatalf("%d bytes claiming a %d-byte block allocated %d bytes", len(in), n, got)
		}
	}
}

// FuzzDecodeStream throws arbitrary bytes at the stream decoder, held to
// the frame decoder's standard (wireproto's FuzzReadFrame): never panic,
// allocate nothing a length or count claims before checking it against
// its bound (TestWireHostileLengthCostsOnlyItsInput), and re-encode any
// stream it accepts to a prefix of its input (bytes after the trailer
// are ignored). A receiver trusts the logical
// hashes a stream carries — reads no longer re-hash what a stream wrote —
// so the format must have one reading. Each input is also tried sealed
// with its own trailing CRC, so mutations reach past the checksum into
// the structure.
//
// Run with `go test -fuzz FuzzDecodeStream ./internal/zvol/`; the seeds
// below plus testdata/fuzz are exercised on every plain `go test`.
func FuzzDecodeStream(f *testing.F) {
	whole := seedStream(f)
	f.Add(whole)
	body := whole[:len(whole)-4]
	f.Add(body) // the body alone: the harness seals it
	// A pointer flag Encode never sets, in the last pointer record (flags
	// u8 | logLen i32 | payload i32 | hash [32]byte), sealed by the harness.
	flagged := bytes.Clone(body)
	flagged[len(flagged)-41] |= 0x02
	f.Add(flagged)
	f.Add(claimBlock(f, maxWireBlock))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := binary.LittleEndian.AppendUint32(bytes.Clone(data), crc32.Checksum(data, crcTable))
		for _, in := range [][]byte{data, sealed} {
			st, err := DecodeStream(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var re bytes.Buffer
			n, err := st.Encode(&re)
			if err != nil {
				t.Fatal(err)
			}
			if n != st.WireSize() || !bytes.HasPrefix(in, re.Bytes()) {
				t.Fatalf("accepted stream re-encodes to %d bytes (WireSize %d) that are not a prefix of the %d-byte input",
					n, st.WireSize(), len(in))
			}
		}
	})
}

// FuzzReceiveStream carries FuzzDecodeStream's inputs past the decoder
// into Receive, on a volume holding the seed's origin: a stream Receive
// refuses leaves the volume as it was, and one it accepts leaves every
// object readable without a panic and Scrub able to run. The seeds are
// seedStream and lyingStreams; each input is also tried sealed with its
// own CRC, as FuzzDecodeStream does.
//
// Run with `go test -fuzz FuzzReceiveStream ./internal/zvol/`.
func FuzzReceiveStream(f *testing.F) {
	src := seedSource(f)
	f.Add(seedStream(f))
	for _, lie := range lyingStreams(f) {
		f.Add(lie)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := binary.LittleEndian.AppendUint32(bytes.Clone(data), crc32.Checksum(data, crcTable))
		for _, in := range [][]byte{data, sealed} {
			st, err := DecodeStream(bytes.NewReader(in))
			if err != nil {
				continue
			}
			dst := seedReceiver(t, src)
			before := snapshotState(t, dst)
			if err := dst.Receive(st); err != nil {
				if !sameState(before, snapshotState(t, dst)) {
					t.Fatalf("Receive refused the stream (%v) and changed the volume", err)
				}
				continue
			}
			for _, name := range dst.Objects() {
				// A hole may claim gigabytes, which reading it would allocate.
				if o, err := dst.Object(name); err == nil && o.Size <= 1<<20 {
					dst.ReadObject(name)
				}
			}
			dst.Scrub()
		}
	})
}

func BenchmarkWireEncode(b *testing.B) {
	st := mkStream(b)
	var size int64
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		n, err := st.Encode(&buf)
		if err != nil {
			b.Fatal(err)
		}
		size = n
	}
	b.SetBytes(size)
}

func BenchmarkWireDecode(b *testing.B) {
	st := mkStream(b)
	var buf bytes.Buffer
	st.Encode(&buf)
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeStream(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
