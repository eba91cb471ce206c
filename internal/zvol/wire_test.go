package zvol

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
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
	if len(got.Blocks) != len(st.Blocks) {
		t.Fatalf("blocks %d != %d", len(got.Blocks), len(st.Blocks))
	}
	for i := range st.Blocks {
		if !bytes.Equal(got.Blocks[i], st.Blocks[i]) {
			t.Fatalf("block %d differs", i)
		}
	}
	if !reflect.DeepEqual(got.Upserts, st.Upserts) {
		t.Fatal("upserts differ")
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
