package zvol

import (
	"repro/internal/dedup"
	"repro/internal/store"
)

// Stats summarizes a volume's resource consumption — the quantities the
// paper charts in Figs 8, 9, 10, and 13.
type Stats struct {
	Objects   int64 // live objects
	Snapshots int64

	LogicalBytes int64 // Σ live object sizes (what readers see)
	ZeroBytes    int64 // bytes suppressed as holes across all writes
	DataBytes    int64 // stored payload bytes (post dedup + compression)
	DDTDiskBytes int64 // dedup table on disk (Fig 9)
	DDTMemBytes  int64 // dedup table in core (Fig 10)
	MetaBytes    int64 // block-pointer metadata on disk

	// DiskBytes is the total on-disk footprint: data + DDT + metadata
	// (Fig 8 measures exactly this sum for the ZFS volume images).
	DiskBytes int64

	UniqueBlocks int64
	References   int64
	DedupRatio   float64 // references / unique, nonzero blocks only; an object counts once however many snapshots list it
}

// bytesPerBlockPtr models ZFS's on-disk block pointer (a 128-byte blkptr_t,
// amortized by indirect-block packing; 64 keeps metadata visible without
// dominating at large block sizes).
const bytesPerBlockPtr = 64

// Stats returns the volume's current consumption. O(1): every sum it
// reports is a running total kept where the summed thing changes — the
// live table's in setObjectLocked, the snapshots' pointer count in
// snapshotLocked/destroySnapLocked, the DDT's and the store's inside
// those packages — so a monitoring poll costs the same at any history
// length and holds the read lock for a handful of loads. The tests keep
// the full walk (statsByWalk) as the oracle.
func (v *Volume) Stats() Stats {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var st Stats
	st.Objects = int64(len(v.objects))
	st.Snapshots = int64(len(v.snaps))
	st.LogicalBytes = v.liveBytes
	st.ZeroBytes = v.zeroBytes
	st.MetaBytes = (v.livePtrs + v.snapPtrs) * bytesPerBlockPtr

	if v.cfg.Dedup {
		ds := v.ddt.Stats()
		st.DataBytes = ds.PhysicalBytes
		st.DDTDiskBytes = ds.DiskBytes
		st.DDTMemBytes = ds.MemBytes
		st.UniqueBlocks = ds.Entries
		st.References = ds.References
		st.DedupRatio = ds.DedupRatio()
	} else {
		ss := v.store.Stats()
		st.DataBytes = ss.UsedBytes
		st.UniqueBlocks = ss.Blocks
		st.References = ss.Blocks
		st.DedupRatio = 1
	}
	st.DiskBytes = st.DataBytes + st.DDTDiskBytes + st.MetaBytes
	return st
}

// StoreStats exposes the underlying block store's occupancy, including
// how many stored payloads are aliased to shared prepared-stream slices.
func (v *Volume) StoreStats() store.Stats { return v.store.Stats() }

// DDTStats exposes the raw dedup-table statistics (nil-safe: volumes
// without dedup return zero stats).
func (v *Volume) DDTStats() dedup.Stats {
	if !v.cfg.Dedup {
		return dedup.Stats{}
	}
	return v.ddt.Stats()
}
