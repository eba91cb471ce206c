package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// LZ4 is a from-scratch Go implementation of the LZ4 block format, the
// second fast codec ZFS offers and one of the four routines the paper
// compares in Fig 3. The block format is a sequence of "sequences":
//
//	token (1B: high nibble = literal count, low nibble = match length-4)
//	[literal count extension bytes, 255 each]
//	literals
//	offset (2B little-endian, backward distance 1..65535)
//	[match length extension bytes, 255 each]
//
// The final sequence carries only literals (no offset). The compressor
// uses a 4-byte hash table with one candidate per bucket, greedy matching,
// and obeys the format's end-of-block restrictions (last 5 bytes literal,
// no match starting within the last 12 bytes).
type LZ4 struct{}

const (
	lz4MinMatch     = 4
	lz4HashLog      = 13
	lz4LastLiterals = 5
	lz4MFLimit      = 12
)

// Name implements Codec.
func (LZ4) Name() string { return "lz4" }

func lz4Hash(v uint32) int {
	return int((v * 2654435761) >> (32 - lz4HashLog))
}

func lz4WriteLen(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// Compress implements Codec.
func (LZ4) Compress(src []byte) []byte {
	dst := make([]byte, 0, len(src)+len(src)/16+16)
	n := len(src)
	if n == 0 {
		return dst
	}
	var table [1 << lz4HashLog]int // position + 1; 0 = empty
	anchor := 0                    // first literal not yet emitted
	s := 0
	limit := n - lz4MFLimit
	for s < limit {
		v := binary.LittleEndian.Uint32(src[s:])
		h := lz4Hash(v)
		cand := table[h] - 1
		table[h] = s + 1
		if cand < 0 || s-cand > 65535 ||
			binary.LittleEndian.Uint32(src[cand:]) != v {
			s++
			continue
		}
		// Extend match forward; it must end at least lz4LastLiterals
		// before the end of the block.
		matchLimit := n - lz4LastLiterals
		mlen := lz4MinMatch
		for s+mlen < matchLimit && src[cand+mlen] == src[s+mlen] {
			mlen++
		}
		litLen := s - anchor
		// Token.
		tok := byte(0)
		if litLen >= 15 {
			tok = 15 << 4
		} else {
			tok = byte(litLen) << 4
		}
		mExtra := mlen - lz4MinMatch
		if mExtra >= 15 {
			tok |= 15
		} else {
			tok |= byte(mExtra)
		}
		dst = append(dst, tok)
		if litLen >= 15 {
			dst = lz4WriteLen(dst, litLen-15)
		}
		dst = append(dst, src[anchor:s]...)
		dst = append(dst, byte(s-cand), byte((s-cand)>>8))
		if mExtra >= 15 {
			dst = lz4WriteLen(dst, mExtra-15)
		}
		s += mlen
		anchor = s
	}
	// Trailing literals.
	litLen := n - anchor
	tok := byte(0)
	if litLen >= 15 {
		tok = 15 << 4
	} else {
		tok = byte(litLen) << 4
	}
	dst = append(dst, tok)
	if litLen >= 15 {
		dst = lz4WriteLen(dst, litLen-15)
	}
	dst = append(dst, src[anchor:]...)
	return dst
}

var errLZ4Corrupt = errors.New("compress: corrupt lz4 stream")

// Decompress implements Codec.
func (LZ4) Decompress(src []byte, maxLen int) ([]byte, error) {
	return decompress(lz4Decode, src, maxLen)
}

// DecompressInto implements Codec.
func (LZ4) DecompressInto(dst, src []byte) error { return decompressInto(lz4Decode, dst, src) }

// lz4Decode is the LZ4 decode core; d is the write position in dst.
func lz4Decode(dst, src []byte) (int, error) {
	d, i := 0, 0
	for i < len(src) {
		tok := src[i]
		i++
		// Literals.
		litLen := int(tok >> 4)
		if litLen == 15 {
			for {
				if i >= len(src) {
					return d, errLZ4Corrupt
				}
				b := src[i]
				i++
				litLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		if i+litLen > len(src) || d+litLen > len(dst) {
			return d, errLZ4Corrupt
		}
		copy(dst[d:], src[i:i+litLen])
		d += litLen
		i += litLen
		if i >= len(src) {
			break // final sequence has no match part
		}
		// Match.
		if i+2 > len(src) {
			return d, errLZ4Corrupt
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > d {
			return d, errLZ4Corrupt
		}
		mlen := int(tok&0xF) + lz4MinMatch
		if tok&0xF == 15 {
			for {
				if i >= len(src) {
					return d, errLZ4Corrupt
				}
				b := src[i]
				i++
				mlen += int(b)
				if b != 255 {
					break
				}
			}
		}
		if d+mlen > len(dst) {
			return d, fmt.Errorf("compress: lz4 output exceeds max %d", len(dst))
		}
		d += copyMatch(dst, d, offset, mlen)
	}
	return d, nil
}
