package compress

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/corpus"
)

// stdGunzip is compress/gzip held to this package's contract — one
// member, exactly len(dst) bytes, the trailer checked, nothing after it.
// It is the oracle the decode core is tested against and the other side
// of BenchmarkInflateCorpus; like the reader the codec used to pool, it
// is reset per block, not rebuilt.
type stdGunzip struct {
	zr  gzip.Reader
	src bytes.Reader
}

func (s *stdGunzip) into(dst, src []byte) error {
	s.src.Reset(src)
	if err := s.zr.Reset(&s.src); err != nil {
		return err
	}
	s.zr.Multistream(false)
	if _, err := io.ReadFull(&s.zr, dst); err != nil && !(len(dst) == 0 && err == io.EOF) {
		return err
	}
	// The trailer is checked where the reader reports EOF.
	var probe [1]byte
	for {
		n, err := s.zr.Read(probe[:])
		switch {
		case n > 0:
			return fmt.Errorf("stream decodes to more than %d bytes", len(dst))
		case err == io.EOF:
			if s.src.Len() != 0 {
				return fmt.Errorf("%d bytes after the trailer", s.src.Len())
			}
			return nil
		case err != nil:
			return err
		}
	}
}

// corpusBlocks returns up to max nonzero 64 KB cache blocks of the
// 32-image deployment squirreld serves and the wire benchmark drives, in
// corpus order, and their gzip6 payloads.
func corpusBlocks(tb testing.TB, max int) (blocks, payloads [][]byte) {
	tb.Helper()
	repo, err := corpus.New(corpus.DefaultSpec().Scale(32.0/607, 0.25))
	if err != nil {
		tb.Fatal(err)
	}
	errFull := errors.New("enough")
	for _, im := range repo.Images[:32] {
		err := im.CacheBlocks(block.Size64K, func(_ int64, data []byte, zero bool) error {
			if !zero {
				blocks = append(blocks, bytes.Clone(data))
			}
			if len(blocks) == max {
				return errFull
			}
			return nil
		})
		if err == errFull {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	gz := MustGet("gzip6")
	for _, b := range blocks {
		payloads = append(payloads, gz.Compress(b))
	}
	return blocks, payloads
}

// inflateSpeedupBar is how much faster than compress/gzip's streaming
// reader the one-shot core must decode the deployment's own blocks; the
// warm-boot gain rests on it. It measured 2.6-3.0x when it was set.
const inflateSpeedupBar = 1.3

// BenchmarkInflateCorpus decodes the deployment's cache blocks with the
// decode core and with compress/gzip, in alternating passes of one run so
// both see the same machine, reports both speeds and their ratio, and
// fails under inflateSpeedupBar.
func BenchmarkInflateCorpus(b *testing.B) {
	blocks, payloads := corpusBlocks(b, 100)
	var logical int64
	for _, blk := range blocks {
		logical += int64(len(blk))
	}
	dst := make([]byte, block.Size64K)
	var std stdGunzip
	pass := func(decode func(dst, src []byte) error) time.Duration {
		start := time.Now()
		for i, p := range payloads {
			if err := decode(dst[:len(blocks[i])], p); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	core := MustGet("gzip6").DecompressInto
	pass(core) // first use builds pooled state on both sides
	pass(std.into)
	const rounds = 5 // per iteration; several, so that -benchtime 1x is already a measurement
	var coreTime, stdTime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			if r%2 == 0 {
				coreTime += pass(core)
				stdTime += pass(std.into)
			} else {
				stdTime += pass(std.into)
				coreTime += pass(core)
			}
		}
	}
	b.StopTimer()
	mbps := func(d time.Duration) float64 { return float64(logical) * rounds * float64(b.N) / 1e6 / d.Seconds() }
	speedup := stdTime.Seconds() / coreTime.Seconds()
	b.ReportMetric(mbps(coreTime), "core-MB/s")
	b.ReportMetric(mbps(stdTime), "stdlib-MB/s")
	b.ReportMetric(speedup, "speedup-x")
	if speedup < inflateSpeedupBar {
		b.Fatalf("inflate: the decode core is %.2fx compress/gzip on the corpus blocks (%.0f vs %.0f MB/s), bar is >= %.1fx",
			speedup, mbps(coreTime), mbps(stdTime), inflateSpeedupBar)
	}
}

// checkOracle decodes src for an expected length n with the decode core
// (inside guard zones) and with compress/gzip, and fails unless they
// agree: both reject, or both produce the same n bytes. It returns those
// bytes, nil when src was rejected.
func checkOracle(t testing.TB, src []byte, n int) []byte {
	t.Helper()
	got, err := guardedInto(t, MustGet("gzip6"), src, n)
	want := make([]byte, n)
	var std stdGunzip
	stdErr := std.into(want, src)
	if (err == nil) != (stdErr == nil) {
		t.Fatalf("decode core: %v, compress/gzip: %v (n = %d, src = %x)", err, stdErr, n, src)
	}
	if err != nil {
		return nil
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("decode core and compress/gzip decoded different bytes (n = %d, src = %x)", n, src)
	}
	return got
}

// stdlibStreams is the input in through compress/gzip at every level,
// HuffmanOnly and NoCompression included: between them stored, fixed and
// dynamic blocks, with and without matches.
func stdlibStreams(t testing.TB, in []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
		var buf bytes.Buffer
		zw, err := gzip.NewWriterLevel(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(in); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzInflate holds the decode core against compress/gzip on arbitrary
// bytes: no panic, no write outside dst, and the same verdict and bytes.
func FuzzInflate(f *testing.F) {
	ins := sampleInputs()
	for _, in := range [][]byte{ins["empty"], ins["one"], ins["short"], ins["text"][:700], ins["mixed"][3500:5000], ins["zeros"][:3000]} {
		for _, s := range stdlibStreams(f, in) {
			f.Add(uint16(len(in)), s)
		}
	}
	for _, s := range slices.Concat(handBuiltStreams(), hostileStreams()) {
		if len(s.src) < 1024 { // long seeds slow the mutator down
			f.Add(uint16(len(s.want)), s.src)
		}
	}
	f.Fuzz(func(t *testing.T, n uint16, src []byte) {
		checkOracle(t, src, int(n))
	})
}

// builtStream is a hand-built gzip member and what it decodes to.
type builtStream struct {
	name      string
	src, want []byte
}

// lensOf returns n codeword lengths, zero except those assigned.
func lensOf(n int, assign map[int]uint8) []uint8 {
	lens := make([]uint8, n)
	for s, l := range assign {
		lens[s] = l
	}
	return lens
}

// twice builds a stream two ways: ending with build's last block, and
// with 300 stored bytes after it. Short streams are decoded by the
// careful loop alone; with the tail there is enough of src and dst ahead
// that the same symbols go through the fast loop.
func twice(name string, build func(b *deflateBuilder, final bool)) []builtStream {
	var bare, padded deflateBuilder
	build(&bare, true)
	build(&padded, false)
	padded.stored(true, make([]byte, 300))
	return []builtStream{
		{name, bare.gzip(), bare.want},
		{name + ", then a stored block", padded.gzip(), padded.want},
	}
}

// pseudoRandom is n bytes no DEFLATE encoder would find a match in.
func pseudoRandom(n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(p)
	return p
}

// handBuiltStreams is the valid half of the format coverage: what a
// decoder must take although this package's encoder never emits it.
func handBuiltStreams() []builtStream {
	var out []builtStream
	add := func(name string, build func(b *deflateBuilder, final bool)) {
		out = append(out, twice(name, build)...)
	}
	add("empty stored block", func(b *deflateBuilder, final bool) { b.stored(final, nil) })
	add("empty fixed block", func(b *deflateBuilder, final bool) {
		b.fixed(final)
		b.end()
	})
	add("stored blocks, one of them empty", func(b *deflateBuilder, final bool) {
		b.stored(false, []byte("hello, "))
		b.stored(false, nil)
		b.stored(final, []byte("world"))
	})
	add("fixed block: 8- and 9-bit literals, overlapping matches at distances 1-9", func(b *deflateBuilder, final bool) {
		b.fixed(final)
		b.literals([]byte("abcdefghi\x8f\x90\xff"))
		for dist := 1; dist <= 9; dist++ {
			b.match(3, dist)
			b.match(20, dist)
		}
		b.end()
	})
	add("fixed block: length 258 both ways, and 257", func(b *deflateBuilder, final bool) {
		b.fixed(final)
		b.literals([]byte("0123456789"))
		b.match(258, 1)
		b.match(258, 10)
		b.matchSyms(27, 31, 3, 0) // symbol 284 with all five extra bits set is 258 too
		b.match(257, 7)
		b.end()
	})
	add("every length symbol and every distance symbol, extra bits all ones", func(b *deflateBuilder, final bool) {
		b.stored(false, pseudoRandom(32768))
		b.fixed(final)
		for ls := range lengthBase {
			b.matchSyms(ls, 1<<lengthExtra[ls]-1, ls, 1<<distExtra[ls]-1)
		}
		for ds := range distBase {
			b.matchSyms(0, 0, ds, 1<<distExtra[ds]-1)
		}
		b.match(258, 32768)
		b.end()
	})
	add("stored, fixed and dynamic blocks sharing one history", func(b *deflateBuilder, final bool) {
		b.stored(false, []byte("squirrel "))
		b.fixed(false)
		b.match(9, 9)
		b.literals([]byte("hoards "))
		b.end()
		b.dynamic(final, lensOf(266, map[int]uint8{'!': 2, 'a': 2, endOfBlock: 2, 257 + 8: 2}), lensOf(10, map[int]uint8{8: 1, 9: 1}))
		b.literal('a')
		b.match(11, 25) // back into the stored block
		b.match(12, 17+7)
		b.literal('!')
		b.end()
	})
	add("15-bit codewords from a skewed alphabet, both codes", func(b *deflateBuilder, final bool) {
		lit := lensOf(258, map[int]uint8{endOfBlock: 15, 257: 15})
		for i := 0; i < 14; i++ {
			lit['a'+i] = uint8(i + 1)
		}
		dist := lensOf(16, nil)
		for s := range dist {
			dist[s] = uint8(min(s+1, 15))
		}
		b.dynamic(final, lit, dist)
		for i := 0; i < 300; i++ {
			b.literal(byte('a' + i%14))
		}
		for ds := 0; ds < 16; ds++ {
			b.matchSyms(0, 0, ds, 1<<distExtra[ds]-1)
			b.literal('n') // the 14-bit literal
		}
		b.end()
	})
	add("code lengths sent with repeats, one of them running from the literal/length code into the distance code", func(b *deflateBuilder, final bool) {
		lit := lensOf(257, map[int]uint8{'a': 1, 255: 2, endOfBlock: 2})
		dist := []uint8{2, 2, 1}
		b.dynamicRaw(final, 0, 2, plainPre(), []clSym{
			{18, 97 - 11}, {sym: 1}, // 0-96 unused, 'a'
			{18, 138 - 11}, {18, 19 - 11}, // 98-254 unused
			{sym: 2}, {16, 0}, // 255, then "the same three more times": 256 and two distances
			{sym: 1},
		}, lit, dist)
		b.literals([]byte("aaaa\xffaaaaaaaaaaaa"))
		b.end()
	})
	add("one one-bit distance codeword", func(b *deflateBuilder, final bool) {
		b.dynamic(final, lensOf(258, map[int]uint8{'z': 1, endOfBlock: 2, 257: 2}), []uint8{1})
		b.literal('z')
		b.matchSyms(0, 0, 0, 0)
		b.matchSyms(0, 0, 0, 0)
		b.end()
	})
	add("no distance codeword and no match", func(b *deflateBuilder, final bool) {
		b.dynamic(final, lensOf(257, map[int]uint8{'z': 1, endOfBlock: 1}), []uint8{0})
		b.literals([]byte("zzzzz"))
		b.end()
	})
	add("one one-bit literal/length codeword: end of block", func(b *deflateBuilder, final bool) {
		b.dynamic(final, lensOf(257, map[int]uint8{endOfBlock: 1}), []uint8{0})
		b.end()
	})
	return out
}

func TestInflateHandBuiltStreams(t *testing.T) {
	for _, s := range handBuiltStreams() {
		got := checkOracle(t, s.src, len(s.want))
		if got == nil {
			t.Errorf("%s: rejected", s.name)
			continue
		}
		if !bytes.Equal(got, s.want) {
			t.Errorf("%s: decoded to the wrong bytes", s.name)
		}
		// One byte of room too few or too many is an error, as is any
		// strict prefix of the stream.
		for _, n := range []int{len(s.want) - 1, len(s.want) + 1} {
			if n >= 0 && checkOracle(t, s.src, n) != nil {
				t.Errorf("%s: decoded into %d bytes, it holds %d", s.name, n, len(s.want))
			}
		}
		if len(s.src) < 1024 {
			for cut := range s.src {
				if checkOracle(t, s.src[:cut], len(s.want)) != nil {
					t.Errorf("%s: decoded when cut to %d of %d bytes", s.name, cut, len(s.src))
				}
			}
		}
	}
}

// hostileStreams is the other half: headers and symbols that must be
// errors. In each, the named defect is the only one, so a decoder that
// overlooks it accepts the stream.
func hostileStreams() []builtStream {
	var out []builtStream
	add := func(name string, build func(b *deflateBuilder, final bool)) {
		out = append(out, twice(name, build)...)
	}
	var (
		litOK   = map[int]uint8{'a': 1, endOfBlock: 2, 257: 2}
		distOK  = []uint8{1, 1}
		badCode = func(name string, lit map[int]uint8, dist []uint8) {
			add(name, func(b *deflateBuilder, final bool) {
				b.dynamic(final, lensOf(258, lit), dist)
				if lit[endOfBlock] != 0 {
					b.end()
				}
			})
		}
		badHeader = func(name string, hlit, hdist uint, pre [19]uint8, seq []clSym) {
			add(name, func(b *deflateBuilder, final bool) {
				b.dynamicRaw(final, hlit, hdist, pre, seq, lensOf(258, litOK), distOK)
				b.end()
			})
		}
		// plain sends lens as a code-length sequence, each as itself.
		plain = func(lens ...[]uint8) (seq []clSym) {
			for _, ls := range lens {
				for _, l := range ls {
					seq = append(seq, clSym{sym: uint(l)})
				}
			}
			return seq
		}
	)
	badCode("over-subscribed literal/length code", map[int]uint8{'a': 1, 'b': 1, endOfBlock: 1}, distOK)
	badCode("incomplete literal/length code", map[int]uint8{'a': 2, endOfBlock: 2}, distOK)
	badCode("one two-bit literal/length codeword", map[int]uint8{endOfBlock: 2}, distOK)
	badCode("over-subscribed distance code", litOK, []uint8{1, 1, 1})
	badCode("incomplete distance code", litOK, []uint8{2, 2})
	badCode("one two-bit distance codeword", litOK, []uint8{2})
	badCode("no end-of-block codeword", map[int]uint8{'a': 1, 'b': 1}, distOK)

	okSeq := plain(lensOf(258, litOK), distOK)
	var pre [19]uint8
	badHeader("empty code-length code", 1, 1, pre, nil)
	pre[0], pre[1], pre[2] = 1, 1, 1
	badHeader("over-subscribed code-length code", 1, 1, pre, nil)
	pre[0], pre[1], pre[2] = 2, 2, 0
	badHeader("incomplete code-length code", 1, 1, pre, nil)
	badHeader("HLIT of 287", 30, 1, plainPre(), plain(lensOf(287, litOK), distOK))
	badHeader("HLIT of 288", 31, 1, plainPre(), plain(lensOf(288, litOK), distOK))
	badHeader("HDIST of 31", 1, 30, plainPre(), plain(lensOf(258, litOK), lensOf(31, map[int]uint8{0: 1, 1: 1})))
	badHeader("HDIST of 32", 1, 31, plainPre(), plain(lensOf(258, litOK), lensOf(32, map[int]uint8{0: 1, 1: 1})))
	badHeader("repeat with no length before it", 1, 1, plainPre(), append([]clSym{{16, 0}}, okSeq[3:]...))
	badHeader("repeat running past the last length", 1, 1, plainPre(), append(okSeq[:len(okSeq)-1:len(okSeq)-1], clSym{17, 0}))

	add("distance reaching before the first byte", func(b *deflateBuilder, final bool) {
		b.fixed(final)
		b.literals([]byte("ab"))
		b.match(3, 3)
		b.end()
	})
	for _, s := range []int{286, 287} {
		add(fmt.Sprintf("length symbol %d", s), func(b *deflateBuilder, final bool) {
			b.fixed(final)
			b.literal('a')
			b.code(b.lit[s])
			b.code(b.dist[0])
			b.end()
		})
	}
	for _, s := range []int{30, 31} {
		add(fmt.Sprintf("distance symbol %d", s), func(b *deflateBuilder, final bool) {
			b.fixed(final)
			b.literal('a')
			b.code(b.lit[257])
			b.code(b.dist[s])
			b.end()
		})
	}
	add("the codeword a one-bit distance code leaves unassigned", func(b *deflateBuilder, final bool) {
		b.dynamic(final, lensOf(258, litOK), []uint8{1})
		b.literal('a')
		b.code(b.lit[257])
		b.bits(1, 1)
		b.end()
	})
	add("a match under an empty distance code", func(b *deflateBuilder, final bool) {
		b.dynamic(final, lensOf(258, litOK), []uint8{0})
		b.literal('a')
		b.code(b.lit[257])
		b.bits(0, 1)
		b.end()
	})
	add("stored block whose LEN and NLEN disagree", func(b *deflateBuilder, final bool) {
		b.blockHeader(final, 0)
		b.align()
		b.bits(5, 16)
		b.bits(^uint(5)^0x100, 16)
		b.out = append(b.out, "hello"...)
		b.want = append(b.want, "hello"...)
	})
	add("reserved block type", func(b *deflateBuilder, final bool) {
		b.blockHeader(final, 3)
	})
	return out
}

func TestInflateRejectsHostileStreams(t *testing.T) {
	streams := hostileStreams()
	for _, s := range streams {
		if checkOracle(t, s.src, len(s.want)) != nil {
			t.Errorf("%s: decoded", s.name)
		}
	}
	// The streams come in pairs (twice), the same defect met by the
	// careful loop and by the fast loop: both report the output position
	// they had reached, the bytes written before the defect.
	for i := 0; i+1 < len(streams); i += 2 {
		bare, padded := streams[i], streams[i+1]
		nBare, _ := gzipDecode(make([]byte, len(padded.want)), bare.src)
		nPadded, _ := gzipDecode(make([]byte, len(padded.want)), padded.src)
		if nBare != nPadded {
			t.Errorf("%s: the careful loop stops at byte %d, the fast loop at %d", bare.name, nBare, nPadded)
		}
	}
}

// randomCode returns lengths over an alphabet of n symbols for a random
// prefix code of k codewords, none longer than 15 bits, one of them for
// symbol must (if not negative). One codeword gets one bit — the
// incomplete code the format tolerates; more form a complete code.
func randomCode(rng *rand.Rand, n, k, must int) []uint8 {
	depths := []uint8{0}
	for len(depths) < k {
		i := rng.Intn(len(depths))
		if depths[i] == maxCodeLen {
			continue
		}
		depths[i]++
		depths = append(depths, depths[i])
	}
	if k == 1 {
		depths[0] = 1
	}
	lens := make([]uint8, n)
	syms := rng.Perm(n)[:k]
	if must >= 0 && !slices.Contains(syms, must) {
		syms[0] = must
	}
	for i, s := range syms {
		lens[s] = depths[i]
	}
	return lens
}

func TestInflateRandomCodes(t *testing.T) {
	// Table building is where a from-scratch Huffman decoder goes wrong:
	// random codes of every shape (deep, flat, two codewords, 286), random
	// symbols written with them, and compress/gzip as the judge.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		var b deflateBuilder
		for blocks := 1 + rng.Intn(3); blocks > 0; blocks-- {
			lit := randomCode(rng, 286, 1+rng.Intn(286), endOfBlock)
			dist := randomCode(rng, 30, 1+rng.Intn(30), -1)
			if trial%8 == 0 {
				// Every symbol coded, as deep as the code goes.
				lit, dist = randomCode(rng, 286, 286, endOfBlock), randomCode(rng, 30, 30, -1)
			}
			b.dynamic(blocks == 1, lit, dist)
			var lits, lsyms, dsyms []int
			for s, l := range lit {
				switch {
				case l != 0 && s < endOfBlock:
					lits = append(lits, s)
				case l != 0 && s > endOfBlock:
					lsyms = append(lsyms, s-257)
				}
			}
			for s, l := range dist {
				if l != 0 {
					dsyms = append(dsyms, s)
				}
			}
			for tokens := rng.Intn(400); tokens > 0; tokens-- {
				if len(lsyms) > 0 && rng.Intn(2) == 0 {
					ls, ds := lsyms[rng.Intn(len(lsyms))], dsyms[rng.Intn(len(dsyms))]
					if room := len(b.want) - distBase[ds]; room >= 0 {
						dextra := min(rng.Intn(1<<distExtra[ds]), room)
						b.matchSyms(ls, uint(rng.Intn(1<<lengthExtra[ls])), ds, uint(dextra))
						continue
					}
				}
				if len(lits) > 0 {
					b.literal(byte(lits[rng.Intn(len(lits))]))
				}
			}
			b.end()
		}
		got := checkOracle(t, b.gzip(), len(b.want))
		if got == nil || !bytes.Equal(got, b.want) {
			t.Fatalf("trial %d: rejected (%v) or wrong bytes", trial, got == nil)
		}
	}
}

func TestInflateGzipHeaders(t *testing.T) {
	var b deflateBuilder
	b.fixed(true)
	b.literals([]byte("acorn"))
	b.end()
	const (
		ftext, fhcrc, fextra, fname, fcomment = 1, 2, 4, 8, 16
	)
	// header builds a member header with the optional fields flags asks
	// for, in the order RFC 1952 puts them.
	header := func(flags byte, name string) []byte {
		h := []byte{0x1f, 0x8b, 8, flags, 1, 2, 3, 4, 2, 3}
		if flags&fextra != 0 {
			h = append(h, 6, 0, 'A', 'p', 2, 0, 0xde, 0xad)
		}
		if flags&fname != 0 {
			h = append(append(h, name...), 0)
		}
		if flags&fcomment != 0 {
			h = append(h, "no comment\x00"...)
		}
		if flags&fhcrc != 0 {
			h = binary.LittleEndian.AppendUint16(h, uint16(crc32.ChecksumIEEE(h)))
		}
		return h
	}
	for flags := 0; flags < 256; flags++ {
		// All 32 combinations of the five defined flags, and each with the
		// reserved bits, which compress/gzip ignores.
		src := b.gzipWithHeader(header(byte(flags), "hoard.img"))
		if got := checkOracle(t, src, len(b.want)); !bytes.Equal(got, b.want) {
			t.Errorf("flags %#02x: rejected or wrong bytes", flags)
		}
		if flags&fhcrc != 0 {
			h := header(byte(flags), "hoard.img")
			h[len(h)-1] ^= 0x40
			if checkOracle(t, b.gzipWithHeader(h), len(b.want)) != nil {
				t.Errorf("flags %#02x: accepted a wrong header CRC", flags)
			}
		}
		// Cut anywhere inside the header, the member is an error.
		h := header(byte(flags), "hoard.img")
		for cut := range h {
			if checkOracle(t, src[:cut], len(b.want)) != nil {
				t.Errorf("flags %#02x: decoded a header cut to %d of %d bytes", flags, cut, len(h))
			}
		}
	}
	// compress/gzip bounds a name or comment at 511 bytes; so do we.
	for n, want := range map[int]bool{511: true, 512: false} {
		src := b.gzipWithHeader(header(fname, strings.Repeat("n", n)))
		if got := checkOracle(t, src, len(b.want)); (got != nil) != want {
			t.Errorf("%d-byte name: accepted %v, want %v", n, got != nil, want)
		}
	}
	for name, h := range map[string][]byte{
		"wrong magic":         {0x1f, 0x8c, 8, 0, 0, 0, 0, 0, 0, 0xff},
		"not DEFLATE":         {0x1f, 0x8b, 7, 0, 0, 0, 0, 0, 0, 0xff},
		"FEXTRA past the end": {0x1f, 0x8b, 8, fextra, 0, 0, 0, 0, 0, 0xff, 0xff, 0x7f},
	} {
		if checkOracle(t, b.gzipWithHeader(h), len(b.want)) != nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestInflateStdlibStreams(t *testing.T) {
	// What compress/gzip's writer produces at every level — stored blocks
	// (NoCompression), Huffman-only, fixed blocks (short inputs) and
	// multi-block dynamic streams — and a flushed stream, whose sync
	// markers are empty stored blocks between the others.
	ins := sampleInputs()
	ins["long"] = append(bytes.Repeat(ins["mixed"], 3), ins["text"]...) // several deflate blocks at any level
	for name, in := range ins {
		for i, src := range stdlibStreams(t, in) {
			if got := checkOracle(t, src, len(in)); !bytes.Equal(got, in) {
				t.Fatalf("%s, level %d: rejected or wrong bytes", name, i+gzip.HuffmanOnly)
			}
		}
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	for _, part := range [][]byte{ins["text"][:5000], ins["random"][:100], ins["zeros"][:40000]} {
		if _, err := zw.Write(part); err != nil {
			t.Fatal(err)
		}
		if err := zw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	want := slices.Concat(ins["text"][:5000], ins["random"][:100], ins["zeros"][:40000])
	if got := checkOracle(t, buf.Bytes(), len(want)); !bytes.Equal(got, want) {
		t.Fatal("flushed stream: rejected or wrong bytes")
	}
}

func TestGzipBitRotNeverDecodesToOtherBytes(t *testing.T) {
	// One flipped bit anywhere in a stored payload must fail the decode or
	// — MTIME, XFL, OS, the flag bits nobody reads — change nothing. Every bit of the
	// first 256 bytes (the gzip header and the first block's code lengths,
	// where a flip rewrites the whole code) and of the trailer, and a
	// seeded sample of the body.
	blocks, payloads := corpusBlocks(t, 1)
	gz := MustGet("gzip6")
	rng := rand.New(rand.NewSource(23))
	for i, payload := range payloads {
		var flips []int
		for bit := 0; bit < 256*8; bit++ {
			flips = append(flips, bit)
		}
		for bit := (len(payload) - 8) * 8; bit < len(payload)*8; bit++ {
			flips = append(flips, bit)
		}
		for k := 0; k < 256; k++ {
			flips = append(flips, 256*8+rng.Intn((len(payload)-8-256)*8))
		}
		rotted, got := bytes.Clone(payload), make([]byte, len(blocks[i]))
		for _, bit := range flips {
			rotted[bit/8] ^= 1 << (bit % 8)
			if err := gz.DecompressInto(got, rotted); err == nil && !bytes.Equal(got, blocks[i]) {
				t.Fatalf("block %d: payload bit %d flipped and the block decoded to other bytes", i, bit)
			}
			rotted[bit/8] ^= 1 << (bit % 8)
		}
	}
}
