package compress

import (
	"errors"
	"fmt"
)

// LZJB is a from-scratch Go implementation of the LZJB compression scheme
// used by ZFS (Jeff Bonwick's variant of Lempel-Ziv). It is a byte-oriented
// LZ77 with:
//
//   - a control byte preceding every group of up to 8 items, one bit per
//     item (0 = literal byte, 1 = match);
//   - matches encoded in two bytes: 6 bits of (length - 3) and 10 bits of
//     backward offset, giving lengths 3..66 within a 1 KB window;
//   - a 1024-entry hash table over 3-byte sequences to find match
//     candidates (one candidate per bucket, no chaining), which is what
//     makes LZJB fast but weaker than gzip — exactly the trade-off Fig 3
//     of the paper shows.
type LZJB struct{}

const (
	lzjbMatchBits = 6
	lzjbMatchMin  = 3
	lzjbMatchMax  = (1 << lzjbMatchBits) + (lzjbMatchMin - 1) // 66
	lzjbOffsetMax = 1<<(16-lzjbMatchBits) - 1                 // 1023
	lzjbHashSize  = 1 << 10
)

// Name implements Codec.
func (LZJB) Name() string { return "lzjb" }

func lzjbHash(a, b, c byte) int {
	h := uint32(a)<<16 | uint32(b)<<8 | uint32(c)
	h = (h * 2654435761) >> 22
	return int(h) & (lzjbHashSize - 1)
}

// Compress implements Codec.
func (LZJB) Compress(src []byte) []byte {
	var table [lzjbHashSize]int // candidate position + 1; 0 = empty
	dst := make([]byte, 0, len(src)+len(src)/8+1)

	var ctrlPos int  // index of the pending control byte in dst
	var ctrlBit uint // next bit to assign within the control byte
	s := 0
	for s < len(src) {
		if ctrlBit == 0 {
			ctrlPos = len(dst)
			dst = append(dst, 0)
		}
		matched := false
		if s+lzjbMatchMin <= len(src) {
			h := lzjbHash(src[s], src[s+1], src[s+2])
			cand := table[h] - 1
			table[h] = s + 1
			if cand >= 0 && s-cand <= lzjbOffsetMax && cand < s {
				// Extend the match as far as it goes.
				length := 0
				max := len(src) - s
				if max > lzjbMatchMax {
					max = lzjbMatchMax
				}
				for length < max && src[cand+length] == src[s+length] {
					length++
				}
				if length >= lzjbMatchMin {
					offset := s - cand
					dst[ctrlPos] |= 1 << ctrlBit
					dst = append(dst,
						byte((length-lzjbMatchMin)<<(8-lzjbMatchBits))|byte(offset>>8),
						byte(offset))
					s += length
					matched = true
				}
			}
		}
		if !matched {
			dst = append(dst, src[s])
			s++
		}
		ctrlBit = (ctrlBit + 1) & 7
	}
	return dst
}

var errLZJBCorrupt = errors.New("compress: corrupt lzjb stream")

// Decompress implements Codec.
func (LZJB) Decompress(src []byte, maxLen int) ([]byte, error) {
	return decompress(lzjbDecode, src, maxLen)
}

// DecompressInto implements Codec.
func (LZJB) DecompressInto(dst, src []byte) error { return decompressInto(lzjbDecode, dst, src) }

// lzjbDecode is the LZJB decode core; d is the write position in dst.
func lzjbDecode(dst, src []byte) (int, error) {
	d, i := 0, 0
	for i < len(src) {
		ctrl := src[i]
		i++
		for bit := uint(0); bit < 8 && i < len(src); bit++ {
			if ctrl&(1<<bit) != 0 {
				if i+1 >= len(src) {
					return d, errLZJBCorrupt
				}
				length := int(src[i]>>(8-lzjbMatchBits)) + lzjbMatchMin
				offset := int(src[i]&(1<<(8-lzjbMatchBits)-1))<<8 | int(src[i+1])
				i += 2
				if offset == 0 || offset > d {
					return d, errLZJBCorrupt
				}
				if d+length > len(dst) {
					return d, fmt.Errorf("compress: lzjb output exceeds max %d", len(dst))
				}
				d += copyMatch(dst, d, offset, length)
			} else {
				if d+1 > len(dst) {
					return d, fmt.Errorf("compress: lzjb output exceeds max %d", len(dst))
				}
				dst[d] = src[i]
				d++
				i++
			}
		}
	}
	return d, nil
}
