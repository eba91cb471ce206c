// Package block defines the fundamental block model shared by every layer
// of the Squirrel reproduction: fixed-size content blocks, their
// content-addressed hashes, zero (sparse) block detection, and the set of
// block sizes studied by the paper (1 KB through 1 MB, powers of two).
//
// Squirrel (HPDC'14) follows ZFS in using fixed-size chunking; the paper
// cites Jin & Miller's finding that fixed-size chunking performs on par
// with variable-size chunking for VM images, which keeps this layer simple
// and fast.
package block

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Size is a block size in bytes. The paper sweeps block sizes from 1 KB to
// 1 MB in powers of two; ZFS's default record size is 128 KB and the paper
// settles on 64 KB as the sweet spot for cVolumes.
type Size int

// Standard block sizes, mirroring the horizontal axes of the paper's
// figures.
const (
	KiB = 1024
	MiB = 1024 * KiB

	Size1K    Size = 1 * KiB
	Size2K    Size = 2 * KiB
	Size4K    Size = 4 * KiB
	Size8K    Size = 8 * KiB
	Size16K   Size = 16 * KiB
	Size32K   Size = 32 * KiB
	Size64K   Size = 64 * KiB
	Size128K  Size = 128 * KiB
	Size256K  Size = 256 * KiB
	Size512K  Size = 512 * KiB
	Size1024K Size = 1024 * KiB

	// Default is the block size the paper selects for cVolumes after the
	// evaluation in Sections 2.2 and 4.2.
	Default Size = Size64K
)

// AllSizes lists every block size used in the compression-efficiency
// figures (Figs 2, 3, 4, 12), smallest first.
var AllSizes = []Size{
	Size1K, Size2K, Size4K, Size8K, Size16K, Size32K,
	Size64K, Size128K, Size256K, Size512K, Size1024K,
}

// VolumeSizes lists the block sizes used for the ZFS volume measurements
// (Figs 8, 9, 10), where the paper stops at 4 KB because smaller sizes are
// impractical for a real volume.
var VolumeSizes = []Size{Size4K, Size8K, Size16K, Size32K, Size64K, Size128K}

// Valid reports whether s is a positive power-of-two block size.
func (s Size) Valid() bool {
	return s > 0 && s&(s-1) == 0
}

// String renders the size the way the paper labels its axes ("64KB").
func (s Size) String() string {
	switch {
	case s >= MiB && s%MiB == 0:
		return fmt.Sprintf("%dMB", int(s)/MiB)
	case s >= KiB && s%KiB == 0:
		return fmt.Sprintf("%dKB", int(s)/KiB)
	default:
		return fmt.Sprintf("%dB", int(s))
	}
}

// Hash is the content address of a block. SHA-256 is what ZFS uses for
// dedup-safe checksums; we keep the full 32 bytes so collisions are not a
// practical concern, exactly as in ZFS's verify-free dedup mode.
type Hash [sha256.Size]byte

// HashOf computes the content address of a block's raw (uncompressed)
// payload.
func HashOf(data []byte) Hash {
	return sha256.Sum256(data)
}

// castagnoli is the CRC32C table Checksum uses; hash/crc32 computes it
// with the CPU's CRC32 instruction where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the cheap at-rest checksum of a stored payload: CRC32C,
// the role ZFS gives fletcher4 while it keeps SHA-256 for dedup. It
// catches every single-bit error and every burst of up to 32 bits (the
// fault plan's rot flips bits within one byte) at over ten times
// SHA-256's speed. It is held in a Hash's width (the CRC big-endian in
// the first four bytes, the rest zero) so block pointers and DDT entries
// keep one checksum type.
func Checksum(data []byte) Hash {
	var h Hash
	binary.BigEndian.PutUint32(h[:4], CRC32C(data))
	return h
}

// CRC32C is data's CRC32C: the number Checksum holds.
func CRC32C(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}

// CRC32COf is the number a Checksum h holds (h's other bytes are zero).
func CRC32COf(h Hash) uint32 {
	return binary.BigEndian.Uint32(h[:4])
}

// String returns a short hex prefix, enough for logs and debugging.
func (h Hash) String() string {
	return fmt.Sprintf("%x", h[:8])
}

// Uint64 folds the first 8 bytes of the hash into an integer. Handy for
// deterministic sampling and for the store's placement model.
func (h Hash) Uint64() uint64 {
	return binary.BigEndian.Uint64(h[:8])
}

// ZeroHash is the content address of an all-zero block of any size paired
// with IsZero; sparse file systems never store such blocks.
//
// Note: the hash of a zero block depends on its length, so ZeroHash is not
// literally HashOf(zeros); layers must test IsZero before hashing. Keeping
// a sentinel lets maps and traces mark holes explicitly.
var ZeroHash = Hash{}

// IsZero reports whether every byte of the block is zero. Both the paper's
// "nonzero blocks" accounting (Table 1) and ZFS sparse handling depend on
// detecting holes. The scan is O(n) but branch-predictable; it processes
// 8-byte words first.
func IsZero(data []byte) bool {
	n := len(data)
	i := 0
	for ; i+8 <= n; i += 8 {
		if binary.LittleEndian.Uint64(data[i:]) != 0 {
			return false
		}
	}
	for ; i < n; i++ {
		if data[i] != 0 {
			return false
		}
	}
	return true
}
