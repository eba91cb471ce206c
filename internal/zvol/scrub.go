// Scrub and block repair: the volume-level half of Squirrel's answer to
// at-rest bit-rot. The paper delegates on-disk integrity to ZFS
// (checksummed blocks, `zpool scrub`, resilvering); this file is that
// substitution. Every block pointer carries a CRC32C of its stored
// payload and the SHA-256 of its logical data, so a scrub walks the live
// object table, re-reads every stored payload, checks both, and
// enumerates the blocks that no longer verify. RepairBlock heals one
// damaged block in place from verified replacement data without
// disturbing the physical layout.
package zvol

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/block"
)

// BlockRef names one logical block of one object — the unit of scrub
// findings and resilver repairs.
type BlockRef struct {
	Object string
	Index  int
}

// ScrubReport summarizes one scrub pass over a volume's live object
// table.
type ScrubReport struct {
	Objects    int // objects walked
	Blocks     int // nonzero blocks verified
	ZeroBlocks int // holes (nothing stored, nothing to verify)

	ScannedBytes int64 // physical payload bytes read and re-checked

	CorruptBlocks int // payload present but failed checksum/decode
	MissingBlocks int // payload unreadable (unallocated address)

	// Damaged lists every block that failed verification, ordered by
	// object name then block index. Deduplicated blocks shared by several
	// objects appear once per referencing object: that per-object view is
	// exactly what a resilver needs to source repairs.
	Damaged []BlockRef
}

// Clean reports whether the scrub found no damage.
func (r ScrubReport) Clean() bool { return r.CorruptBlocks == 0 && r.MissingBlocks == 0 }

// Scrub verifies every stored block of every live object against both of
// its block pointer's checksums and reports the damage. It reads each
// block as every reader does (length, the payload's CRC32C, exact-length
// decode), so a flipped byte — even one a codec would silently tolerate —
// fails it, and then alone re-hashes the decoded bytes against the
// pointer's logical SHA-256: the end-to-end check a read leaves out, which
// also catches a pointer whose logical hash no longer matches its intact
// payload. The CRC32C catches every single-bit error and every burst of
// up to 32 bits, so the fault plan's one-byte rot is always found.
// Snapshot-only blocks share physical storage with live objects through
// the DDT, so live coverage is what replica serving requires.
func (v *Volume) Scrub() ScrubReport {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var rep ScrubReport
	buf := make([]byte, v.cfg.BlockSize) // every block decodes into this one buffer
	for _, name := range v.objectNamesLocked() {
		obj := v.objects[name]
		rep.Objects++
		for i, p := range obj.ptrs {
			if p.zero {
				rep.ZeroBlocks++
				continue
			}
			rep.Blocks++
			rep.ScannedBytes += int64(p.physLen)
			if len(buf) < int(p.logLen) {
				buf = make([]byte, p.logLen)
			}
			dst := buf[:p.logLen]
			err := v.readBlockInto(p, dst, nil) // from the disk, never the decoded-block cache
			if err == nil && block.HashOf(dst) != p.hash {
				err = ErrCorrupt
			}
			if err != nil {
				if errors.Is(err, ErrCorrupt) {
					rep.CorruptBlocks++
				} else {
					rep.MissingBlocks++ // unreadable address, not a checksum failure
				}
				rep.Damaged = append(rep.Damaged, BlockRef{Object: name, Index: i})
			}
		}
	}
	return rep
}

// objectNamesLocked returns live object names sorted; caller holds v.mu.
func (v *Volume) objectNamesLocked() []string {
	names := make([]string, 0, len(v.objects))
	for n := range v.objects {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CorruptStoredBlock flips one byte of the stored payload backing the
// idx-th logical block of name — the injection point for the at-rest
// bit-rot fault lane. Holes have no storage and cannot rot. With dedup,
// the payload may be shared: rotting it damages every object that
// references the block, exactly as a single bad sector under ZFS would.
func (v *Volume) CorruptStoredBlock(name string, idx int, off int64, xor byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	obj, ok := v.objects[name]
	if !ok {
		return fmt.Errorf("%w: object %s", ErrNotFound, name)
	}
	if idx < 0 || idx >= len(obj.ptrs) {
		return fmt.Errorf("zvol: block %d out of range for %s", idx, name)
	}
	p := obj.ptrs[idx]
	if p.zero {
		return fmt.Errorf("zvol: block %d of %s is a hole, nothing to rot", idx, name)
	}
	return v.store.Corrupt(p.addr, off, xor)
}

// RepairBlock heals the idx-th logical block of name from replacement
// data fetched elsewhere (a peer replica or the PFS). The data is
// verified against the block pointer's logical SHA-256 before anything
// is written — a corrupt source is rejected with ErrBadRepair — then
// re-encoded exactly as the original write encoded it and rewritten in
// place, leaving the volume bit-identical to its pre-rot state. A shared
// (deduplicated) payload is healed for every referencing object at once.
func (v *Volume) RepairBlock(name string, idx int, data []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	obj, ok := v.objects[name]
	if !ok {
		return fmt.Errorf("%w: object %s", ErrNotFound, name)
	}
	if idx < 0 || idx >= len(obj.ptrs) {
		return fmt.Errorf("zvol: block %d out of range for %s", idx, name)
	}
	p := obj.ptrs[idx]
	if p.zero {
		return fmt.Errorf("zvol: block %d of %s is a hole, nothing to repair", idx, name)
	}
	if int32(len(data)) != p.logLen {
		return fmt.Errorf("%w: %d bytes, pointer says %d", ErrBadRepair, len(data), p.logLen)
	}
	if block.HashOf(data) != p.hash {
		return ErrBadRepair
	}
	// Re-encode deterministically: same codec, same gain rule, same
	// input ⇒ byte-identical payload of identical length.
	payload := data
	if p.compressed {
		payload = v.codec.Compress(data)
	}
	if int32(len(payload)) != p.physLen || block.Checksum(payload) != p.physHash {
		return fmt.Errorf("zvol: repair re-encode of %s block %d does not match stored form",
			name, idx)
	}
	return v.store.Rewrite(p.addr, payload)
}
