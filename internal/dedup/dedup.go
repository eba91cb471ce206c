// Package dedup implements the refcounted deduplication table (DDT) at the
// heart of Squirrel's cVolumes. It mirrors the structure of the ZFS DDT:
// one entry per unique block keyed by content hash, holding a reference
// count, the physical location of the single stored copy, and size
// accounting.
//
// The paper measures two costs of the DDT that grow as block size shrinks:
// its on-disk footprint (Fig 9) and its in-core footprint (Fig 10). Both
// are modelled here with per-entry constants calibrated against the
// paper's own measurements of the ZFS DDT on DAS-4 (≈112 B/entry on disk,
// ≈55 B/entry of dedicated memory — Figs 9 and 10 divided by the unique
// block counts of the dataset).
package dedup

import (
	"fmt"
	"sync"

	"repro/internal/block"
)

// Per-entry footprint of the DDT, calibrated to the paper's ZFS
// measurements (see package comment).
const (
	DiskBytesPerEntry = 112
	MemBytesPerEntry  = 55
)

// Entry is one unique block in the table.
type Entry struct {
	Hash       block.Hash
	Refs       int64      // number of logical references: block pointers of the objects the volume holds
	Addr       uint64     // physical address in the backing store
	PhysLen    int32      // stored (possibly compressed) length
	LogLen     int32      // original length
	Compressed bool       // whether the payload at Addr is compressed
	PhysHash   block.Hash // block.Checksum (CRC32C) of the stored payload bytes at Addr
}

// Table is a thread-safe refcounted DDT.
type Table struct {
	mu      sync.RWMutex
	entries map[block.Hash]*Entry

	// Running totals over entries, kept by Reference, AddRef and Release
	// under mu so Stats never walks the table.
	refs     int64 // Σ Refs
	physical int64 // Σ PhysLen
	logical  int64 // Σ LogLen × Refs
}

// NewTable returns an empty DDT.
func NewTable() *Table {
	return &Table{entries: make(map[block.Hash]*Entry)}
}

// Lookup returns the entry for h without changing refcounts, or nil.
func (t *Table) Lookup(h block.Hash) *Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.entries[h]
}

// Reference records one more logical reference to h. If the block is
// already present its refcount is bumped and (entry, true) is returned;
// the caller must not store a new copy. Otherwise a new entry with one
// reference is created from the provided location and (entry, false) is
// returned.
func (t *Table) Reference(h block.Hash, addr uint64, physLen, logLen int32, compressed bool, physHash block.Hash) (*Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[h]; ok {
		t.addRefLocked(e, 1)
		return e, true
	}
	e := &Entry{Hash: h, Addr: addr, PhysLen: physLen, LogLen: logLen,
		Compressed: compressed, PhysHash: physHash}
	t.entries[h] = e
	t.physical += int64(physLen)
	t.addRefLocked(e, 1)
	return e, false
}

// addRefLocked moves e's refcount by d (±1) and the reference totals with
// it; every refcount change goes through here.
func (t *Table) addRefLocked(e *Entry, d int64) {
	e.Refs += d
	t.refs += d
	t.logical += d * int64(e.LogLen)
}

// AddRef bumps the refcount of an existing entry. It returns an error if
// the hash is unknown, which would indicate refcount corruption upstream.
func (t *Table) AddRef(h block.Hash) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[h]
	if !ok {
		return fmt.Errorf("dedup: AddRef on unknown hash %v", h)
	}
	t.addRefLocked(e, 1)
	return nil
}

// Release drops one reference to h. When the last reference is gone the
// entry is removed and (entry, true) is returned so the caller can free
// the physical block. Releasing an unknown hash is an error.
func (t *Table) Release(h block.Hash) (*Entry, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[h]
	if !ok {
		return nil, false, fmt.Errorf("dedup: Release on unknown hash %v", h)
	}
	if e.Refs <= 0 {
		return nil, false, fmt.Errorf("dedup: negative refcount for %v", h)
	}
	t.addRefLocked(e, -1)
	if e.Refs == 0 {
		delete(t.entries, h)
		t.physical -= int64(e.PhysLen)
		return e, true, nil
	}
	return e, false, nil
}

// Stats is a consistent snapshot of the table's accounting.
type Stats struct {
	Entries       int64 // unique blocks
	References    int64 // total logical references
	PhysicalBytes int64 // Σ stored payload sizes (one copy per entry)
	LogicalBytes  int64 // Σ LogLen × Refs: data as seen by readers
	DiskBytes     int64 // DDT on-disk footprint (Fig 9)
	MemBytes      int64 // DDT in-core footprint (Fig 10)
}

// DedupRatio is |references| / |unique|, the paper's deduplication ratio
// restricted to nonzero blocks (zero blocks never enter the table).
func (s Stats) DedupRatio() float64 {
	if s.Entries == 0 {
		return 1
	}
	return float64(s.References) / float64(s.Entries)
}

// Stats returns current table statistics. O(1): the sums are running
// totals.
func (t *Table) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := int64(len(t.entries))
	return Stats{
		Entries:       n,
		References:    t.refs,
		PhysicalBytes: t.physical,
		LogicalBytes:  t.logical,
		DiskBytes:     n * DiskBytesPerEntry,
		MemBytes:      n * MemBytesPerEntry,
	}
}

// Len returns the number of unique entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// ForEach calls fn for every entry while holding the read lock; fn must
// not call back into the table.
func (t *Table) ForEach(fn func(*Entry)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.entries {
		fn(e)
	}
}
