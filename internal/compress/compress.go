// Package compress provides the block codecs the paper evaluates for
// cVolumes (Fig 3): gzip at levels 6 and 9 — encoded by the standard
// library, decoded by this package's own one-shot inflate (inflate.go) —
// and from-scratch implementations of the two fast codecs shipped with
// ZFS, LZJB and LZ4. A null codec is included for ablations.
//
// All codecs are deterministic, safe for concurrent use, and round-trip
// exact; properties the test suite checks exhaustively.
//
// Each codec has exactly one decode core, decode(dst, src), which writes
// the decoded block into a caller-supplied slice by index and never
// outside it. Decompress (allocate, decode, trim) and DecompressInto
// (decode, require an exact fill) are thin wrappers over that core, so
// the bounds and corruption checks exist once per format. The cVolume
// read path uses DecompressInto to inflate a block straight into the
// reader's buffer.
package compress

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Codec compresses and decompresses single blocks. Compress returns a
// fresh slice; Decompress must reproduce the original block exactly.
// maxLen is an upper bound on the decompressed size (callers know the
// block size), letting codecs allocate once and detect corruption.
type Codec interface {
	// Name is the registry key ("gzip6", "lz4", ...), matching the labels
	// the paper uses in Fig 3.
	Name() string
	Compress(src []byte) []byte
	Decompress(src []byte, maxLen int) ([]byte, error)
	// DecompressInto decodes src into dst, which must be exactly the
	// block's decoded length: a stream that is corrupt, or decodes to
	// more or fewer than len(dst) bytes, is an error. Nothing outside
	// dst[:len(dst)] is written, and on error dst's contents are
	// unspecified.
	DecompressInto(dst, src []byte) error
}

// decodeFunc is a codec's decode core: it decodes src into dst and
// returns the number of bytes produced. A stream that would decode past
// len(dst) is an error, one that ends early is not (the wrappers below
// decide whether short is acceptable).
type decodeFunc func(dst, src []byte) (int, error)

// decompress is Codec.Decompress over a decode core.
func decompress(decode decodeFunc, src []byte, maxLen int) ([]byte, error) {
	dst := make([]byte, maxLen)
	n, err := decode(dst, src)
	if err != nil {
		return nil, err
	}
	return dst[:n], nil
}

// decompressInto is Codec.DecompressInto over a decode core.
func decompressInto(decode decodeFunc, dst, src []byte) error {
	n, err := decode(dst, src)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("compress: stream decodes to %d bytes, want %d", n, len(dst))
	}
	return nil
}

// copyMatch appends to buf[:d] the n-byte LZ77 match that starts offset
// bytes behind d, and returns n. A match longer than its offset overlaps
// its own output and repeats it, so that case copies a byte at a time;
// the rest is one memmove. The caller has checked 0 < offset <= d and
// d+n <= len(buf).
func copyMatch(buf []byte, d, offset, n int) int {
	if offset >= n {
		return copy(buf[d:d+n], buf[d-offset:])
	}
	for k := d; k < d+n; k++ {
		buf[k] = buf[k-offset]
	}
	return n
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Codec{}
)

// Register adds a codec to the global registry. It panics on duplicate
// names, which would indicate a programming error.
func Register(c Codec) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[c.Name()]; dup {
		panic("compress: duplicate codec " + c.Name())
	}
	registry[c.Name()] = c
}

// Get returns the codec registered under name.
func Get(name string) (Codec, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
	return c, nil
}

// MustGet is Get for statically known names; it panics on failure.
func MustGet(name string) Codec {
	c, err := Get(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names lists the registered codecs in sorted order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(Null{})
	Register(NewGzip("gzip6", 6))
	Register(NewGzip("gzip9", 9))
	Register(LZJB{})
	Register(LZ4{})
}

// Null is the identity codec, used for "compression off" ablations and as
// the qcow2-on-XFS baseline configuration.
type Null struct{}

// Name implements Codec.
func (Null) Name() string { return "null" }

// Compress returns a copy of src.
func (Null) Compress(src []byte) []byte {
	out := make([]byte, len(src))
	copy(out, src)
	return out
}

// Decompress returns a copy of src.
func (Null) Decompress(src []byte, maxLen int) ([]byte, error) {
	return decompress(nullDecode, src, maxLen)
}

// DecompressInto copies src into dst.
func (Null) DecompressInto(dst, src []byte) error { return decompressInto(nullDecode, dst, src) }

func nullDecode(dst, src []byte) (int, error) {
	if len(src) > len(dst) {
		return 0, fmt.Errorf("compress: null payload %d exceeds max %d", len(src), len(dst))
	}
	return copy(dst, src), nil
}

// Gzip is gzip at a fixed level. ZFS's gzip-6 is the paper's codec of
// choice after Fig 3 shows gzip-9 gains almost nothing for extra CPU.
// Compress is compress/gzip's writer, so stored bytes are the standard
// library's; decoding is gzipDecode, which verifies everything that
// package's reader does (header, stream, CRC32/ISIZE trailer) on a
// payload it has whole. Both sides' state is pooled — the deflater here,
// the inflater's ≈ 12 KB of Huffman tables package-wide: allocating it is
// far more expensive than reusing it.
type Gzip struct {
	name    string
	level   int
	writers sync.Pool // *gzipWriter
}

// gzipWriter is one pooled encode state: the deflater and the buffer it
// writes into. The buffer keeps its capacity across blocks, so Compress
// allocates only its result, at the result's exact length — a caller
// that stores the slice (the cVolume does) retains no slack.
type gzipWriter struct {
	zw  *gzip.Writer
	out bytes.Buffer
}

// NewGzip returns a gzip codec at the given level registered under name.
func NewGzip(name string, level int) *Gzip {
	g := &Gzip{name: name, level: level}
	g.writers.New = func() any {
		zw, err := gzip.NewWriterLevel(io.Discard, level)
		if err != nil {
			panic(err) // level is static and valid
		}
		return &gzipWriter{zw: zw}
	}
	return g
}

// Name implements Codec.
func (g *Gzip) Name() string { return g.name }

// Compress implements Codec.
func (g *Gzip) Compress(src []byte) []byte {
	w := g.writers.Get().(*gzipWriter)
	w.out.Reset()
	w.zw.Reset(&w.out)
	if _, err := w.zw.Write(src); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := w.zw.Close(); err != nil {
		panic(err)
	}
	out := bytes.Clone(w.out.Bytes())
	g.writers.Put(w)
	return out
}

// Decompress implements Codec.
func (g *Gzip) Decompress(src []byte, maxLen int) ([]byte, error) {
	return decompress(gzipDecode, src, maxLen)
}

// DecompressInto implements Codec.
func (g *Gzip) DecompressInto(dst, src []byte) error { return decompressInto(gzipDecode, dst, src) }
