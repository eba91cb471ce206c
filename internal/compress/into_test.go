package compress

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// canary is the fill byte of the guard zones around a guarded dst.
const (
	canary    = 0xA5
	canaryLen = 64
)

// guardedInto runs c.DecompressInto on an n-byte dst carved out of the
// middle of a canary-filled buffer. dst's capacity deliberately runs on
// into the trailing guard, so a decoder that appends or reslices past
// len(dst) is caught, not just one that indexes past it. It fails the
// test if a guard byte changed and returns dst and the decode error.
func guardedInto(t testing.TB, c Codec, src []byte, n int) ([]byte, error) {
	t.Helper()
	buf := bytes.Repeat([]byte{canary}, n+2*canaryLen)
	dst := buf[canaryLen : canaryLen+n]
	err := c.DecompressInto(dst, src)
	for i, b := range buf {
		if (i < canaryLen || i >= canaryLen+n) && b != canary {
			t.Fatalf("%s: DecompressInto wrote outside dst at offset %d (dst is %d bytes)",
				c.Name(), i-canaryLen, n)
		}
	}
	return dst, err
}

// checkAgree asserts the two decode entry points tell the same story
// about src for an expected length n: DecompressInto succeeds exactly
// when Decompress succeeds with n bytes, and then both produce the same
// bytes.
func checkAgree(t testing.TB, c Codec, src []byte, n int) {
	t.Helper()
	into, intoErr := guardedInto(t, c, src, n)
	out, err := c.Decompress(src, n)
	if err == nil && len(out) > n {
		t.Fatalf("%s: Decompress produced %d > maxLen %d", c.Name(), len(out), n)
	}
	if wantOK := err == nil && len(out) == n; wantOK != (intoErr == nil) {
		t.Fatalf("%s: Decompress (%d bytes, err %v) and DecompressInto (want %d, err %v) disagree",
			c.Name(), len(out), err, n, intoErr)
	}
	if intoErr == nil && !bytes.Equal(into, out) {
		t.Fatalf("%s: Decompress and DecompressInto decoded different bytes", c.Name())
	}
}

func TestDecompressIntoRoundTrip(t *testing.T) {
	for _, c := range allCodecs(t) {
		for name, in := range sampleInputs() {
			out, err := guardedInto(t, c, c.Compress(in), len(in))
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name(), name, err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("%s/%s: round trip mismatch", c.Name(), name)
			}
		}
	}
}

func TestDecompressIntoRejects(t *testing.T) {
	in := bytes.Repeat([]byte("squirrel hoards acorns; "), 170) // 4080 bytes, LZ-friendly
	in = append(in, sampleInputs()["random"][:512]...)          // and a literal tail
	cases := []struct {
		name string
		// mutate returns the stream to decode and the dst length to ask
		// for, given a valid stream of in.
		mutate func(comp []byte) ([]byte, int)
		only   string // name prefix of the codecs the case applies to, "" for all
	}{
		{"dst one byte short of the stream", func(c []byte) ([]byte, int) { return c, len(in) - 1 }, ""},
		{"dst one byte longer than the stream", func(c []byte) ([]byte, int) { return c, len(in) + 1 }, ""},
		{"dst empty", func(c []byte) ([]byte, int) { return c, 0 }, ""},
		{"stream empty", func(c []byte) ([]byte, int) { return nil, len(in) }, ""},
		{"last byte cut", func(c []byte) ([]byte, int) { return c[:len(c)-1], len(in) }, ""},
		{"trailer CRC32 flipped", func(c []byte) ([]byte, int) {
			c[len(c)-8] ^= 0x01
			return c, len(in)
		}, "gzip"},
		{"trailer ISIZE flipped", func(c []byte) ([]byte, int) {
			c[len(c)-1] ^= 0x80
			return c, len(in)
		}, "gzip"},
		{"trailer cut off", func(c []byte) ([]byte, int) { return c[:len(c)-8], len(in) }, "gzip"},
		{"garbage after the stream", func(c []byte) ([]byte, int) { return append(c, 0xFF), len(in) }, "gzip"},
		{"second member after the stream", func(c []byte) ([]byte, int) { return append(c, c...), len(in) }, "gzip"},
	}
	for _, c := range allCodecs(t) {
		for _, tc := range cases {
			if !strings.HasPrefix(c.Name(), tc.only) {
				continue
			}
			src, n := tc.mutate(c.Compress(in))
			if _, err := guardedInto(t, c, src, n); err == nil {
				t.Errorf("%s: %s: decode succeeded", c.Name(), tc.name)
			}
			checkAgree(t, c, src, n)
		}
	}
}

func TestDecompressIntoTruncatedAtEveryByte(t *testing.T) {
	// An exact-length decode can never succeed on a strict prefix of a
	// valid stream: something the block needs is missing.
	in := bytes.Repeat([]byte("squirrel hoards "), 96)
	in = append(in, sampleInputs()["random"][:256]...)
	for _, c := range allCodecs(t) {
		comp := c.Compress(in)
		for cut := 0; cut < len(comp); cut++ {
			if _, err := guardedInto(t, c, comp[:cut], len(in)); err == nil {
				t.Fatalf("%s: stream cut to %d of %d bytes decoded", c.Name(), cut, len(comp))
			}
		}
	}
}

func TestDecompressIntoAgreesOnCorruptStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := sampleInputs()["mixed"][:8192]
	for _, c := range allCodecs(t) {
		comp := c.Compress(in)
		for trial := 0; trial < 300; trial++ {
			mut := append([]byte(nil), comp...)
			for k := 0; k <= rng.Intn(4); k++ {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
			checkAgree(t, c, mut, len(in))
		}
	}
}

func TestDecompressIntoConcurrent(t *testing.T) {
	// The gzip decode state is pooled; concurrent decodes of different
	// blocks must not bleed into each other (run under -race).
	ins := sampleInputs()
	for _, c := range allCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			for name, in := range ins {
				in, comp := in, c.Compress(in)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					dst := make([]byte, len(in))
					for i := 0; i < 20; i++ {
						if err := c.DecompressInto(dst, comp); err != nil || !bytes.Equal(dst, in) {
							t.Errorf("round %d: err %v, equal %v", i, err, bytes.Equal(dst, in))
							return
						}
					}
				})
			}
		})
	}
}

// FuzzDecompressInto feeds arbitrary bytes to every codec's decode core
// through both entry points: no panic, no write outside dst, and
// Decompress and DecompressInto agree. The block decoders take bytes off
// a disk that can rot, so hostile input is the normal case to survive.
func FuzzDecompressInto(f *testing.F) {
	names := Names()
	text := []byte("the quick brown fox jumps over the lazy dog, the quick brown fox")
	for i, name := range names {
		comp := MustGet(name).Compress(text)
		f.Add(uint8(i), uint16(len(text)), comp)
		f.Add(uint8(i), uint16(len(text)-1), comp)
		f.Add(uint8(i), uint16(len(text)), comp[:len(comp)/2])
	}
	f.Fuzz(func(t *testing.T, codec uint8, n uint16, src []byte) {
		checkAgree(t, MustGet(names[int(codec)%len(names)]), src, int(n))
	})
}

func benchDecompressInto(b *testing.B, name string) {
	c := MustGet(name)
	in := sampleInputs()["mixed"][:64*1024]
	comp := c.Compress(in)
	dst := make([]byte, len(in))
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.DecompressInto(dst, comp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressIntoGzip6(b *testing.B) { benchDecompressInto(b, "gzip6") }
func BenchmarkDecompressIntoLZJB(b *testing.B)  { benchDecompressInto(b, "lzjb") }
func BenchmarkDecompressIntoLZ4(b *testing.B)   { benchDecompressInto(b, "lz4") }
