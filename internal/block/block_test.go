package block

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSizeValid(t *testing.T) {
	for _, s := range AllSizes {
		if !s.Valid() {
			t.Errorf("%v should be valid", s)
		}
	}
	for _, s := range []Size{0, -1, 3, 1000, 1<<20 + 1} {
		if s.Valid() {
			t.Errorf("%d should be invalid", s)
		}
	}
}

func TestSizeString(t *testing.T) {
	cases := map[Size]string{
		Size1K:    "1KB",
		Size64K:   "64KB",
		Size1024K: "1MB",
		Size(512): "512B",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Size(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestHashOfDeterministic(t *testing.T) {
	a := HashOf([]byte("squirrel"))
	b := HashOf([]byte("squirrel"))
	if a != b {
		t.Fatal("same content must hash identically")
	}
	c := HashOf([]byte("squirrel!"))
	if a == c {
		t.Fatal("different content should not collide")
	}
}

func TestChecksumIsCRC32CAndCatchesEveryBitFlip(t *testing.T) {
	// The known CRC32C check value, held big-endian in the first four
	// bytes and nothing after them.
	if got := Checksum([]byte("123456789")); got != (Hash{0xe3, 0x06, 0x92, 0x83}) {
		t.Fatalf("Checksum(\"123456789\") = %x, want e3069283 then zeros", got[:])
	}
	data := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(data)
	sum := Checksum(data)
	for bit := 0; bit < len(data)*8; bit++ {
		data[bit/8] ^= 1 << (bit % 8)
		if Checksum(data) == sum {
			t.Fatalf("flip of bit %d went unseen", bit)
		}
		data[bit/8] ^= 1 << (bit % 8)
	}
}

func TestIsZero(t *testing.T) {
	if !IsZero(nil) {
		t.Error("empty slice is zero")
	}
	if !IsZero(make([]byte, 4096)) {
		t.Error("zero block not detected")
	}
	b := make([]byte, 4096)
	b[4095] = 1
	if IsZero(b) {
		t.Error("trailing nonzero byte missed")
	}
	b = make([]byte, 17)
	b[0] = 1
	if IsZero(b) {
		t.Error("leading nonzero byte missed")
	}
}

func TestIsZeroQuick(t *testing.T) {
	// Property: IsZero agrees with a naive scan on random slices.
	f := func(data []byte, flip bool) bool {
		if flip && len(data) > 0 {
			data[rand.Intn(len(data))] = 0xFF
		}
		naive := true
		for _, b := range data {
			if b != 0 {
				naive = false
				break
			}
		}
		return IsZero(data) == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChunkerExact(t *testing.T) {
	data := make([]byte, 8*KiB)
	for i := range data {
		data[i] = byte(i)
	}
	c, err := NewChunker(bytes.NewReader(data), Size1K)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	err = c.ForEach(func(ch Chunk) error {
		if ch.Index != n {
			t.Errorf("index %d, want %d", ch.Index, n)
		}
		if len(ch.Data) != KiB {
			t.Errorf("chunk %d has %d bytes", n, len(ch.Data))
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("got %d chunks, want 8", n)
	}
}

func TestChunkerShortTail(t *testing.T) {
	data := make([]byte, 2*KiB+100)
	c, _ := NewChunker(bytes.NewReader(data), Size1K)
	var sizes []int
	if err := c.ForEach(func(ch Chunk) error {
		sizes = append(sizes, len(ch.Data))
		if !ch.Zero {
			t.Error("all-zero chunk not flagged")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []int{KiB, KiB, 100}
	if len(sizes) != len(want) {
		t.Fatalf("got %d chunks, want %d", len(sizes), len(want))
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("chunk %d size %d, want %d", i, sizes[i], want[i])
		}
	}
}

func TestChunkerEmpty(t *testing.T) {
	c, _ := NewChunker(bytes.NewReader(nil), Size4K)
	_, err := c.Next()
	if err != io.EOF {
		t.Fatalf("want EOF on empty stream, got %v", err)
	}
}

func TestChunkerBadSize(t *testing.T) {
	if _, err := NewChunker(bytes.NewReader(nil), 3000); err != ErrBadSize {
		t.Fatalf("want ErrBadSize, got %v", err)
	}
}

func TestChunkerReassembly(t *testing.T) {
	// Property: concatenating chunks reproduces the stream, for random
	// lengths and all block sizes.
	rng := rand.New(rand.NewSource(7))
	for _, size := range []Size{Size1K, Size4K, Size64K} {
		for trial := 0; trial < 5; trial++ {
			n := rng.Intn(300 * KiB)
			data := make([]byte, n)
			rng.Read(data)
			c, _ := NewChunker(bytes.NewReader(data), size)
			var out []byte
			if err := c.ForEach(func(ch Chunk) error {
				out = append(out, ch.Data...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("size %v len %d: reassembly mismatch", size, n)
			}
		}
	}
}

func TestCountBlocks(t *testing.T) {
	cases := []struct {
		len  int64
		size Size
		want int64
	}{
		{0, Size4K, 0},
		{-5, Size4K, 0},
		{1, Size4K, 1},
		{4096, Size4K, 1},
		{4097, Size4K, 2},
		{1 << 20, Size64K, 16},
	}
	for _, c := range cases {
		if got := CountBlocks(c.len, c.size); got != c.want {
			t.Errorf("CountBlocks(%d,%v)=%d, want %d", c.len, c.size, got, c.want)
		}
	}
}

func BenchmarkIsZero64K(b *testing.B) {
	buf := make([]byte, Size64K)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if !IsZero(buf) {
			b.Fatal("unexpected")
		}
	}
}

func BenchmarkHashOf64K(b *testing.B) {
	buf := make([]byte, Size64K)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		HashOf(buf)
	}
}

func BenchmarkChecksum64K(b *testing.B) {
	buf := make([]byte, Size64K)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		Checksum(buf)
	}
}
