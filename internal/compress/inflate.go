package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"
)

// This file is the gzip decode core: a from-scratch, one-shot DEFLATE
// decoder (RFC 1951 inside RFC 1952 framing) for a payload that is whole
// in memory and a destination whose length is known. It keeps a 64-bit
// bit buffer refilled eight source bytes at a time, resolves a Huffman
// codeword with one lookup in a packed uint32 table (a second one for
// codewords longer than the table's root), and writes literals and
// matches straight into dst — there is no window, the output is the
// history. The table geometry is libdeflate's.
//
// It accepts exactly what compress/gzip accepts for a single member with
// nothing after the trailer (FuzzInflate holds the two against each
// other), including that package's two liberties: a code made of a single
// one-bit codeword is legal, and so is an empty one nothing uses.

var (
	errGzipCorrupt  = errors.New("compress: corrupt gzip stream")
	errGzipHeader   = errors.New("compress: bad gzip header")
	errGzipChecksum = errors.New("compress: gzip trailer does not match the decoded bytes")
)

const (
	maxCodeLen = 15

	litlenSyms = 288 // the fixed code has 288 codewords; a dynamic one at most 286
	distSyms   = 32  // likewise 32, and 30
	preSyms    = 19  // the code-length code

	// Root widths and worst-case sizes (root plus every subtable any
	// complete code can need: zlib's `enough 288 11 15`, `enough 32 8 15`).
	litlenRoot = 11
	distRoot   = 8
	preRoot    = 7 // the code-length code's longest codeword: no subtables
	litlenSize = 2342
	distSize   = 402
	preSize    = 1 << preRoot

	litlenMask = 1<<litlenRoot - 1
	distMask   = 1<<distRoot - 1

	endOfBlock = 256
	maxMatch   = 258

	// fastSlack is the room the fast loop wants left in dst: one trip
	// writes at most two literals and a longest match, and the wide copy
	// may run up to seven bytes past the match's end.
	fastSlack = 2 + maxMatch + 7
)

// A table entry packs everything decoding a codeword needs:
//
//	bits 0-5    bits to drop from the bit buffer: the codeword (under a
//	            subtable, what is left of it) plus a length's or a
//	            distance's extra bits; for a subtable pointer, the root
//	bits 8-11   the codeword's share of that, i.e. where the extra bits
//	            start; for a subtable pointer, the subtable's index width
//	bits 12-15  what the entry is, below; none set is a length or distance
//	bits 16-31  literal byte, length or distance base, code-length symbol,
//	            or the subtable's first index
const (
	huffInvalid  = 1 << 12 // no such codeword, or a symbol the format reserves
	huffEOB      = 1 << 13
	huffSubtable = 1 << 14
	huffLiteral  = 1 << 15

	huffExceptional = huffInvalid | huffEOB | huffSubtable
)

// drop is the number of bits entry e takes out of the bit buffer. (The
// mask is what lets the compiler shift by it without a range check.)
func drop(e uint32) uint { return uint(e & 63) }

// value is a length or distance entry's base plus the extra bits that
// follow its codeword in bitbuf.
func value(e uint32, bitbuf uint64) int {
	return int(e>>16 + uint32(bitbuf)&(1<<(e&63)-1)>>(e>>8&15))
}

// subIndex is where subtable pointer e sends the bits that follow the
// root in bitbuf.
func subIndex(e uint32, bitbuf uint64) uint32 {
	return e>>16 + uint32(bitbuf)&(1<<(e>>8&15)-1)
}

// Per-symbol entries before the codeword length is known: kind, base,
// and the extra-bit count where the length will be added.
var (
	litlenEntries [litlenSyms]uint32
	distEntries   [distSyms]uint32
	preEntries    [preSyms]uint32
)

func init() {
	for s := range litlenEntries {
		switch {
		case s < endOfBlock:
			litlenEntries[s] = huffLiteral | uint32(s)<<16
		case s == endOfBlock:
			litlenEntries[s] = huffEOB
		default:
			litlenEntries[s] = huffInvalid // 286, 287
		}
	}
	// Lengths 3..257 in groups of four symbols sharing an extra-bit count
	// (the first eight have none), then 258 on its own.
	base := 3
	for s := 257; s < 285; s++ {
		extra := max(0, (s-257)/4-1)
		litlenEntries[s] = uint32(base)<<16 | uint32(extra)
		base += 1 << extra
	}
	litlenEntries[285] = maxMatch << 16
	// Distances 1..32768 in pairs.
	base = 1
	for s := range distEntries {
		if s >= 30 {
			distEntries[s] = huffInvalid
			continue
		}
		extra := max(0, s/2-1)
		distEntries[s] = uint32(base)<<16 | uint32(extra)
		base += 1 << extra
	}
	for s := range preEntries {
		preEntries[s] = uint32(s) << 16
	}
}

// reverseCode is the l-bit codeword code with its bits in stream order,
// first bit lowest.
func reverseCode(code, l int) int { return int(bits.Reverse16(uint16(code)) >> (16 - l)) }

// buildTable fills table — a root of 1<<root entries, subtables after it
// — for the canonical Huffman code whose codeword lengths are lens,
// symbol s decoding to entries[s]. It reports false for lengths that are
// no prefix code: over-subscribed, or incomplete other than empty or one
// one-bit codeword. sorted is scratch for len(lens) symbols.
func buildTable(table []uint32, root int, lens []uint8, entries []uint32, sorted []uint16) bool {
	var count, offs [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	syms, left := 0, 1 // left: codewords of this length still unassigned
	for l := 1; l <= maxCodeLen; l++ {
		offs[l] = syms
		syms += count[l]
		if left = left<<1 - count[l]; left < 0 {
			return false
		}
	}
	if left > 0 && (syms > 1 || count[1] != syms) {
		return false
	}
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	// Codewords are numbered in canonical order — shortest first, by
	// symbol within a length — and the stream carries them first bit
	// lowest, so a codeword's index is its number bit-reversed. The root
	// grows with the codeword length: while it is l bits wide every l-bit
	// codeword is a single entry, and doubling it repeats the shorter
	// ones. The two entries it starts from stay invalid only under an
	// incomplete code.
	table[0], table[1] = huffInvalid, huffInvalid
	i, code := 0, 0
	for l := 1; l <= root; l++ {
		if l > 1 {
			copy(table[1<<(l-1):1<<l], table[:1<<(l-1)])
		}
		for ; count[l] > 0; count[l]-- {
			table[reverseCode(code, l)] = entries[sorted[i]] + uint32(l)<<8 + uint32(l)
			i++
			code++
		}
		code <<= 1
	}

	// Longer codewords go through a subtable per root-bit prefix, indexed
	// by the bits after the root.
	next := 1 << root // where the next subtable goes
	prefix, sub, subBits := -1, 0, 0
	for l := root + 1; l <= maxCodeLen; l++ {
		for ; count[l] > 0; count[l]-- {
			rev := reverseCode(code, l)
			if rev&(1<<root-1) != prefix {
				// Size the new subtable for the longest codeword sharing
				// the prefix: lengthen it until the codewords not yet
				// placed fill it.
				prefix = rev & (1<<root - 1)
				subBits = l - root
				for free := 1<<subBits - count[l]; free > 0 && subBits+root < maxCodeLen; {
					subBits++
					free = free<<1 - count[subBits+root]
				}
				sub = next
				if next += 1 << subBits; next > len(table) {
					return false
				}
				table[prefix] = huffSubtable | uint32(sub)<<16 | uint32(subBits)<<8 | uint32(root)
			}
			e := entries[sorted[i]] + uint32(l-root)<<8 + uint32(l-root)
			for j := rev >> root; j < 1<<subBits; j += 1 << (l - root) {
				table[sub+j] = e
			}
			i++
			code++
		}
		code <<= 1
	}
	return true
}

// fixedTables is the fixed Huffman code of RFC 1951 §3.2.6, built on
// first use.
var fixedTables struct {
	once   sync.Once
	litlen [litlenSize]uint32
	dist   [distSize]uint32
}

// fixedLens returns the fixed code's codeword lengths: 288 literal/length
// symbols, then 32 five-bit distances.
func fixedLens() (lens [litlenSyms + distSyms]uint8) {
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		case s < litlenSyms:
			lens[s] = 8
		default:
			lens[s] = 5
		}
	}
	return lens
}

func buildFixedTables() {
	lens := fixedLens()
	var sorted [litlenSyms]uint16
	buildTable(fixedTables.litlen[:], litlenRoot, lens[:litlenSyms], litlenEntries[:], sorted[:])
	buildTable(fixedTables.dist[:], distRoot, lens[litlenSyms:], distEntries[:], sorted[:])
}

// inflater is the state of one decode: the bit reader over src, the
// write position in dst, and a dynamic block's tables (≈ 12 KB, which is
// why it is pooled).
type inflater struct {
	src    []byte
	in     int    // next byte of src to load into bitbuf
	bitbuf uint64 // unread bits, next bit lowest
	bitcnt uint   // how many of them are counted as loaded (< 64)
	dst    []byte
	out    int

	lens   [litlenSyms + distSyms]uint8
	sorted [litlenSyms]uint16
	pre    [preSize]uint32
	litlen [litlenSize]uint32
	dist   [distSize]uint32
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// gzipDecode is the gzip decode core: it decodes the single gzip member
// src into dst and returns the number of bytes produced. Every check the
// format offers is made: the header (optional fields and their CRC16
// included), the DEFLATE stream, the CRC32 and ISIZE trailer against the
// decoded bytes, and that src ends with the trailer.
func gzipDecode(dst, src []byte) (int, error) {
	body, err := gzipBody(src)
	if err != nil {
		return 0, err
	}
	f := inflaters.Get().(*inflater)
	f.src, f.in, f.bitbuf, f.bitcnt = body, 0, 0, 0
	f.dst, f.out = dst, 0
	err = f.inflate()
	n, trailer := f.out, body[f.in:]
	f.src, f.dst = nil, nil // do not pin the payload or the block while pooled
	inflaters.Put(f)
	if err != nil {
		return n, err
	}
	if len(trailer) != 8 {
		return n, errGzipCorrupt
	}
	if binary.LittleEndian.Uint32(trailer) != crc32.ChecksumIEEE(dst[:n]) ||
		binary.LittleEndian.Uint32(trailer[4:]) != uint32(n) {
		return n, errGzipChecksum
	}
	return n, nil
}

// gzipBody checks a member's header and returns what follows it: the
// DEFLATE stream and the trailer.
func gzipBody(src []byte) ([]byte, error) {
	const (
		flagHdrCrc  = 1 << 1
		flagExtra   = 1 << 2
		flagName    = 1 << 3
		flagComment = 1 << 4
		maxString   = 512 // compress/gzip's limit on name and comment, NUL included
	)
	if len(src) < 10 || src[0] != 0x1f || src[1] != 0x8b || src[2] != 8 {
		return nil, errGzipHeader
	}
	flg, p := src[3], 10
	if flg&flagExtra != 0 {
		if p+2 > len(src) {
			return nil, errGzipHeader
		}
		if p += 2 + int(binary.LittleEndian.Uint16(src[p:])); p > len(src) {
			return nil, errGzipHeader
		}
	}
	for _, field := range [...]byte{flagName, flagComment} {
		if flg&field != 0 {
			i := bytes.IndexByte(src[p:], 0)
			if i < 0 || i >= maxString {
				return nil, errGzipHeader
			}
			p += i + 1
		}
	}
	if flg&flagHdrCrc != 0 {
		if p+2 > len(src) || binary.LittleEndian.Uint16(src[p:]) != uint16(crc32.ChecksumIEEE(src[:p])) {
			return nil, errGzipHeader
		}
		p += 2
	}
	return src[p:], nil
}

// refill tops the bit buffer up to at least 56 bits, or to the end of
// src. The word load leaves the bits above bitcnt holding the bytes at
// src[in:] already; loading them again later ORs in the same values.
func (f *inflater) refill() {
	if f.in+8 <= len(f.src) {
		f.bitbuf |= binary.LittleEndian.Uint64(f.src[f.in:]) << f.bitcnt
		f.in += int(63-f.bitcnt) >> 3
		f.bitcnt |= 56
		return
	}
	for f.bitcnt < 56 && f.in < len(f.src) {
		f.bitbuf |= uint64(f.src[f.in]) << f.bitcnt
		f.in++
		f.bitcnt += 8
	}
}

// take removes and returns the next n <= 32 bits; ok is false when src
// ends first.
func (f *inflater) take(n uint) (v uint32, ok bool) {
	if f.bitcnt < n {
		if f.refill(); f.bitcnt < n {
			return 0, false
		}
	}
	v = uint32(f.bitbuf) & (1<<n - 1)
	f.bitbuf >>= n
	f.bitcnt -= n
	return v, true
}

// alignToByte drops the rest of a partly read byte and hands whole unread
// bytes back to src, leaving the bit buffer empty and in at the next byte
// of the stream.
func (f *inflater) alignToByte() {
	f.in -= int(f.bitcnt >> 3)
	f.bitbuf, f.bitcnt = 0, 0
}

// inflate decodes DEFLATE blocks up to and including the final one.
func (f *inflater) inflate() error {
	for {
		hdr, ok := f.take(3)
		if !ok {
			return errGzipCorrupt
		}
		var err error
		switch hdr >> 1 {
		case 0:
			err = f.storedBlock()
		case 1:
			fixedTables.once.Do(buildFixedTables)
			err = f.huffmanBlock(&fixedTables.litlen, &fixedTables.dist)
		case 2:
			if err = f.readDynamicHeader(); err == nil {
				err = f.huffmanBlock(&f.litlen, &f.dist)
			}
		default:
			err = errGzipCorrupt
		}
		if err != nil {
			return err
		}
		if hdr&1 != 0 {
			f.alignToByte()
			return nil
		}
	}
}

func (f *inflater) storedBlock() error {
	f.alignToByte()
	if f.in+4 > len(f.src) {
		return errGzipCorrupt
	}
	n := int(binary.LittleEndian.Uint16(f.src[f.in:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(f.src[f.in+2:]) {
		return errGzipCorrupt
	}
	f.in += 4
	if f.in+n > len(f.src) {
		return errGzipCorrupt
	}
	if f.out+n > len(f.dst) {
		return f.errTooLong()
	}
	copy(f.dst[f.out:], f.src[f.in:f.in+n])
	f.in += n
	f.out += n
	return nil
}

func (f *inflater) errTooLong() error {
	return fmt.Errorf("compress: gzip output exceeds max %d", len(f.dst))
}

// preOrder is the order a dynamic block header lists the code-length
// code's own codeword lengths in.
var preOrder = [preSyms]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// readDynamicHeader reads a dynamic block's two codes into f.litlen and
// f.dist.
func (f *inflater) readDynamicHeader() error {
	hdr, ok := f.take(14)
	if !ok {
		return errGzipCorrupt
	}
	nlit, ndist, npre := int(hdr&31)+257, int(hdr>>5&31)+1, int(hdr>>10)+4
	if nlit > 286 || ndist > 30 {
		return errGzipCorrupt
	}
	clear(f.lens[:preSyms])
	for _, s := range preOrder[:npre] {
		l, ok := f.take(3)
		if !ok {
			return errGzipCorrupt
		}
		f.lens[s] = uint8(l)
	}
	if !buildTable(f.pre[:], preRoot, f.lens[:preSyms], preEntries[:], f.sorted[:]) {
		return errGzipCorrupt
	}

	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		_, sym, ok := f.symbol(f.pre[:], preRoot)
		if !ok {
			return errGzipCorrupt
		}
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		// 16 repeats the previous length 3-6 times, 17 and 18 write runs
		// of 3-10 and 11-138 zeros.
		var prev uint8
		extra, rep := uint(2), 3
		switch sym {
		case 16:
			if i == 0 {
				return errGzipCorrupt
			}
			prev = lens[i-1]
		case 17:
			extra = 3
		case 18:
			extra, rep = 7, 11
		}
		v, ok := f.take(extra)
		if rep += int(v); !ok || i+rep > len(lens) {
			return errGzipCorrupt
		}
		for ; rep > 0; rep-- {
			lens[i] = prev
			i++
		}
	}
	if lens[endOfBlock] == 0 {
		return errGzipCorrupt // the block could never end
	}
	if !buildTable(f.litlen[:], litlenRoot, lens[:nlit], litlenEntries[:], f.sorted[:]) ||
		!buildTable(f.dist[:], distRoot, lens[nlit:], distEntries[:], f.sorted[:]) {
		return errGzipCorrupt
	}
	return nil
}

// huffmanBlock decodes one block's symbols with the given codes, up to
// and including its end-of-block symbol.
func (f *inflater) huffmanBlock(lt *[litlenSize]uint32, dt *[distSize]uint32) error {
	// The fast loop runs while two whole words can be loaded from src and
	// dst has room for anything one trip can write, so inside it no read
	// or write needs its own end check. The bit reader lives in locals.
	src, dst := f.src, f.dst
	in, out, bitbuf, bitcnt := f.in, f.out, f.bitbuf, f.bitcnt
	for in+16 <= len(src) && out+fastSlack <= len(dst) {
		bitbuf |= binary.LittleEndian.Uint64(src[in:]) << (bitcnt & 63)
		in += int(63-bitcnt) >> 3
		bitcnt |= 56
		e := lt[bitbuf&litlenMask]
		if e&huffLiteral != 0 {
			// Most symbols are literals: up to three (45 bits) come out
			// of one refill.
			bitbuf >>= drop(e)
			bitcnt -= drop(e)
			dst[out] = byte(e >> 16)
			out++
			if e = lt[bitbuf&litlenMask]; e&huffLiteral != 0 {
				bitbuf >>= drop(e)
				bitcnt -= drop(e)
				dst[out] = byte(e >> 16)
				out++
				if e = lt[bitbuf&litlenMask]; e&huffLiteral != 0 {
					bitbuf >>= drop(e)
					bitcnt -= drop(e)
					dst[out] = byte(e >> 16)
					out++
					continue
				}
			}
			// e may start a match, which wants 48 bits.
			bitbuf |= binary.LittleEndian.Uint64(src[in:]) << (bitcnt & 63)
			in += int(63-bitcnt) >> 3
			bitcnt |= 56
		}
		if e&huffExceptional != 0 {
			if e&huffSubtable != 0 {
				bitbuf >>= litlenRoot
				bitcnt -= litlenRoot
				e = lt[subIndex(e, bitbuf)]
				if e&huffLiteral != 0 {
					bitbuf >>= drop(e)
					bitcnt -= drop(e)
					dst[out] = byte(e >> 16)
					out++
					continue
				}
			}
			if e&huffEOB != 0 {
				bitbuf >>= drop(e)
				bitcnt -= drop(e)
				f.in, f.out, f.bitbuf, f.bitcnt = in, out, bitbuf, bitcnt
				return nil
			}
			if e&huffInvalid != 0 {
				f.out = out
				return errGzipCorrupt
			}
		}
		length := value(e, bitbuf)
		bitbuf >>= drop(e)
		bitcnt -= drop(e)

		e = dt[bitbuf&distMask]
		if e&huffSubtable != 0 {
			bitbuf >>= distRoot
			bitcnt -= distRoot
			e = dt[subIndex(e, bitbuf)]
		}
		if e&huffInvalid != 0 {
			f.out = out
			return errGzipCorrupt
		}
		dist := value(e, bitbuf)
		bitbuf >>= drop(e)
		bitcnt -= drop(e)
		if dist > out {
			f.out = out
			return errGzipCorrupt
		}

		end := out + length
		if dist >= 8 {
			// Eight bytes at a time; the source word is always behind
			// out, so a match overlapping its own output still reads
			// bytes already written.
			for from := out - dist; out < end; from, out = from+8, out+8 {
				binary.LittleEndian.PutUint64(dst[out:], binary.LittleEndian.Uint64(dst[from:]))
			}
		} else {
			for ; out < end; out++ {
				dst[out] = dst[out-dist]
			}
		}
		out = end
	}
	f.in, f.out, f.bitbuf, f.bitcnt = in, out, bitbuf, bitcnt

	// The last few symbols, near the end of src or dst: the same steps
	// with every bit and byte counted.
	for {
		e, v, ok := f.symbol(lt[:], litlenRoot)
		switch {
		case !ok:
			return errGzipCorrupt
		case e&huffEOB != 0:
			return nil
		case e&huffLiteral != 0:
			if f.out == len(f.dst) {
				return f.errTooLong()
			}
			f.dst[f.out] = byte(v)
			f.out++
			continue
		}
		_, dist, ok := f.symbol(dt[:], distRoot)
		if !ok || dist > f.out {
			return errGzipCorrupt
		}
		if f.out+v > len(f.dst) {
			return f.errTooLong()
		}
		f.out += copyMatch(f.dst, f.out, dist, v)
	}
}

// symbol reads one codeword through table, and the extra bits of a length
// or distance, checking that src holds every bit of them. It returns the
// codeword's entry and what it stands for: the literal byte, length,
// distance or code-length symbol.
func (f *inflater) symbol(table []uint32, root uint) (e uint32, v int, ok bool) {
	f.refill()
	e = table[f.bitbuf&(1<<root-1)]
	if e&huffSubtable != 0 {
		if f.bitcnt < root {
			return 0, 0, false
		}
		f.bitbuf >>= root
		f.bitcnt -= root
		e = table[subIndex(e, f.bitbuf)]
	}
	if e&huffInvalid != 0 || drop(e) > f.bitcnt {
		return 0, 0, false
	}
	v = value(e, f.bitbuf)
	f.bitbuf >>= drop(e)
	f.bitcnt -= drop(e)
	return e, v, true
}
