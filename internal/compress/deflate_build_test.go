package compress

import (
	"encoding/binary"
	"hash/crc32"
)

// The length and distance alphabets of RFC 1951 §3.2.5, written out from
// the RFC rather than derived the way inflate.go derives them.
var (
	lengthBase  = [29]int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [30]int{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = [30]uint{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

// hcode is one Huffman codeword, first bit highest.
type hcode struct{ bits, len uint }

// canonical assigns the codewords RFC 1951 §3.2.2 gives the lengths lens.
// It does not care whether they form a prefix code: hostile tests hand it
// lengths that do not.
func canonical(lens []uint8) []hcode {
	var count, next [maxCodeLen + 2]uint
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]hcode, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = hcode{next[l], uint(l)}
			next[l]++
		}
	}
	return codes
}

// deflateBuilder writes a DEFLATE stream by hand, one field or symbol at
// a time, and keeps the bytes the stream should decode to. It exists to
// build what compress/gzip's writer never emits: chosen block types,
// chosen codes, chosen matches, and headers that are wrong on purpose.
type deflateBuilder struct {
	out  []byte
	acc  uint64
	nacc uint
	want []byte

	lit, dist []hcode // the open block's codes
}

// bits writes the low n bits of v, first bit lowest (header fields and
// extra bits).
func (b *deflateBuilder) bits(v, n uint) {
	b.acc |= uint64(v&(1<<n-1)) << b.nacc
	for b.nacc += n; b.nacc >= 8; b.nacc -= 8 {
		b.out = append(b.out, byte(b.acc))
		b.acc >>= 8
	}
}

// code writes a Huffman codeword, first bit first.
func (b *deflateBuilder) code(c hcode) {
	if c.len == 0 {
		panic("deflateBuilder: symbol has no codeword in this block's code")
	}
	for i := int(c.len) - 1; i >= 0; i-- {
		b.bits(c.bits>>uint(i), 1)
	}
}

func (b *deflateBuilder) align() {
	if b.nacc > 0 {
		b.bits(0, 8-b.nacc)
	}
}

func (b *deflateBuilder) blockHeader(final bool, typ uint) {
	if final {
		b.bits(1, 1)
	} else {
		b.bits(0, 1)
	}
	b.bits(typ, 2)
}

// stored writes p as a stored block.
func (b *deflateBuilder) stored(final bool, p []byte) {
	b.blockHeader(final, 0)
	b.align()
	b.bits(uint(len(p)), 16)
	b.bits(^uint(len(p)), 16)
	b.out = append(b.out, p...)
	b.want = append(b.want, p...)
}

// fixed opens a fixed-Huffman block.
func (b *deflateBuilder) fixed(final bool) {
	b.blockHeader(final, 1)
	lens := fixedLens()
	b.lit, b.dist = canonical(lens[:litlenSyms]), canonical(lens[litlenSyms:])
}

// clSym is one symbol of a dynamic header's code-length sequence: a
// length 0-15, or 16/17/18 with its repeat count's extra bits.
type clSym struct{ sym, extra uint }

// plainPre is a complete code-length code that can send every symbol:
// 0-12 in four bits, 13-18 in five.
func plainPre() (lens [19]uint8) {
	for s := range lens {
		lens[s] = 4
		if s > 12 {
			lens[s] = 5
		}
	}
	return lens
}

// dynamicRaw opens a dynamic block with every header field chosen by the
// caller: the HLIT and HDIST fields as written (count-257, count-1), the
// code-length code, and the code-length symbols that follow. lit and dist
// are the codes the body is then written with.
func (b *deflateBuilder) dynamicRaw(final bool, hlit, hdist uint, pre [19]uint8, seq []clSym, lit, dist []uint8) {
	b.blockHeader(final, 2)
	b.bits(hlit, 5)
	b.bits(hdist, 5)
	b.bits(19-4, 4)
	for _, s := range preOrder {
		b.bits(uint(pre[s]), 3)
	}
	codes := canonical(pre[:])
	for _, s := range seq {
		b.code(codes[s.sym])
		switch s.sym {
		case 16:
			b.bits(s.extra, 2)
		case 17:
			b.bits(s.extra, 3)
		case 18:
			b.bits(s.extra, 7)
		}
	}
	b.lit, b.dist = canonical(lit), canonical(dist)
}

// dynamic opens a dynamic block for the given codes, every length sent
// as itself. lit must cover at least symbols 0-256, dist at least one.
func (b *deflateBuilder) dynamic(final bool, lit, dist []uint8) {
	var seq []clSym
	for _, l := range lit {
		seq = append(seq, clSym{sym: uint(l)})
	}
	for _, l := range dist {
		seq = append(seq, clSym{sym: uint(l)})
	}
	b.dynamicRaw(final, uint(len(lit)-257), uint(len(dist)-1), plainPre(), seq, lit, dist)
}

func (b *deflateBuilder) literal(c byte) {
	b.code(b.lit[c])
	b.want = append(b.want, c)
}

func (b *deflateBuilder) literals(p []byte) {
	for _, c := range p {
		b.literal(c)
	}
}

// match writes a length/distance pair with the symbols that have the
// largest bases not above them.
func (b *deflateBuilder) match(length, dist int) {
	ls := len(lengthBase) - 1
	for lengthBase[ls] > length {
		ls--
	}
	ds := len(distBase) - 1
	for distBase[ds] > dist {
		ds--
	}
	b.matchSyms(ls, uint(length-lengthBase[ls]), ds, uint(dist-distBase[ds]))
}

// matchSyms writes a pair as length symbol 257+ls and distance symbol ds
// with the given extra bits.
func (b *deflateBuilder) matchSyms(ls int, lextra uint, ds int, dextra uint) {
	b.code(b.lit[257+ls])
	b.bits(lextra, lengthExtra[ls])
	b.code(b.dist[ds])
	b.bits(dextra, distExtra[ds])
	length, dist := lengthBase[ls]+int(lextra), distBase[ds]+int(dextra)
	for i := 0; i < length && dist <= len(b.want); i++ {
		b.want = append(b.want, b.want[len(b.want)-dist])
	}
}

func (b *deflateBuilder) end() { b.code(b.lit[endOfBlock]) }

// gzip closes the stream and frames it as a gzip member with a plain
// header and the trailer of the bytes it should decode to.
func (b *deflateBuilder) gzip() []byte {
	return b.gzipWithHeader([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff})
}

func (b *deflateBuilder) gzipWithHeader(hdr []byte) []byte {
	b.align()
	out := append(append([]byte(nil), hdr...), b.out...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(b.want))
	return binary.LittleEndian.AppendUint32(out, uint32(len(b.want)))
}
