// Package store models the physical block store underneath a cVolume: a
// flat disk address space in which compressed block payloads are allocated
// sequentially, freed, and reused.
//
// Keeping real byte addresses (instead of opaque IDs) matters for the
// paper's Fig 11: after deduplication, logically adjacent blocks of one
// image end up physically scattered because their single stored copies
// were allocated whenever the *first* writer of each block arrived. The
// boot simulator derives seek behaviour directly from these addresses.
//
// Ownership. The store owns the slice at an address unless the address is
// marked shared. Alloc copies the caller's bytes; AllocOwned takes the
// caller's slice as is (a codec's fresh output, referenced by nothing
// else). A shared address holds a slice other stores hold too — borrowed
// through AllocShared, or lent out through Share — and nobody may write
// it: Corrupt and Rewrite first replace it with a private copy, which is
// the only time a shared payload is copied.
//
// Checksum verdicts. The store keeps no checksums of its own — a block
// pointer above it holds the one a payload must match — but it does know
// exactly when a payload's bytes change: only place, Corrupt, Rewrite and
// Free write a slot, all under the write lock. So each slot remembers the
// checksum its bytes were last seen to pass (ReadChecked), and every one
// of those writes forgets it: a payload nobody has written since its last
// check is not hashed again, and one that has been written always is
// (TestReadCheckedVerdictLifecycle; under -race,
// TestReadCheckedVerdictNeverOutlivesItsBytes).
package store

import (
	"bytes"
	"fmt"
	"sync"
)

// Store is a thread-safe virtual disk. Payloads are stored by address;
// allocation is append-first with first-fit reuse of freed extents.
type Store struct {
	mu     sync.RWMutex
	slots  map[uint64]slot
	next   uint64   // bump allocation pointer (bytes)
	free   []extent // freed extents eligible for reuse, release-ordered (Free appends): first-fit walks them in that order, and deterministic placement depends on it
	used   int64    // Σ len of the payloads in slots; place and Free keep it (Rewrite and Corrupt preserve lengths)
	shared int64    // slots marked shared
	writes uint64   // payload writes so far (place, Corrupt, Rewrite, Free): a verdict is recorded only if none landed while it was computed

	allocs int64
	frees  int64
}

// slot is one stored payload.
type slot struct {
	b []byte
	// sum is the checksum b was last seen to pass, valid while checked:
	// ReadChecked sets it, and every write to the slot clears checked.
	sum     uint32
	checked bool
	shared  bool // b is aliased by, or aliases, a slice in other stores
}

type extent struct {
	addr uint64
	size int64
}

// New returns an empty store.
func New() *Store {
	return &Store{slots: make(map[uint64]slot)}
}

// Alloc stores a copy of payload and returns its disk address. Freed
// extents are reused when the payload fits (first fit); otherwise the
// payload is appended at the end of the used address space, which models
// the mostly-append behaviour of a filling volume.
func (s *Store) Alloc(payload []byte) uint64 {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	return s.place(cp, false)
}

// AllocOwned is Alloc without the copy: the caller hands over a slice
// nothing else references (a codec's fresh output), and the store owns it
// from here on exactly as it owns Alloc's private copy.
func (s *Store) AllocOwned(payload []byte) uint64 {
	return s.place(payload, false)
}

// AllocShared stores payload WITHOUT copying it: the store aliases the
// caller's slice. The caller promises never to mutate it afterwards. This
// is the bulk-provisioning path — when the same prepared stream is
// received by thousands of node volumes, every replica's store points at
// one immutable payload instead of holding its own copy. Addresses are
// assigned by exactly the same placement logic as Alloc, so a volume
// populated via AllocShared is address-identical to one populated via
// Alloc. Mutating hooks (Corrupt, Rewrite) copy-on-write a shared payload
// before touching it, so damage stays local to this store.
func (s *Store) AllocShared(payload []byte) uint64 {
	return s.place(payload, true)
}

// Share is the sending side of AllocShared: it returns the payload
// stored at addr for other stores to alias and marks this store's slot
// copy-on-write, so the lender's own Corrupt or Rewrite copies first and
// never reaches the borrowers' bytes (nor theirs its own). Freeing the
// slot afterwards only drops this store's reference to the slice.
func (s *Store) Share(addr uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.slots[addr]
	if !ok {
		return nil, fmt.Errorf("store: share of unallocated address %d", addr)
	}
	if !sl.shared {
		sl.shared = true
		s.shared++
		s.slots[addr] = sl
	}
	return sl.b, nil
}

func (s *Store) place(payload []byte, shared bool) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.allocs++
	need := int64(len(payload))
	if need == 0 {
		need = 1 // empty payloads still occupy a unique address
	}
	addr, found := uint64(0), false
	for i, e := range s.free {
		if e.size >= need {
			addr, found = e.addr, true
			if e.size == need {
				s.free = append(s.free[:i], s.free[i+1:]...)
			} else {
				s.free[i] = extent{addr: e.addr + uint64(need), size: e.size - need}
			}
			break
		}
	}
	if !found {
		addr = s.next
		s.next += uint64(need)
	}
	s.slots[addr] = slot{b: payload, shared: shared}
	s.used += int64(len(payload))
	if shared {
		s.shared++
	}
	s.writes++
	return addr
}

// writableLocked readies slot sl to be written in place: a private copy
// of its payload if it aliases a shared slice, and no verdict, since the
// write is about to change its bytes. The caller holds s.mu, writes the
// returned slot's b, and stores the slot back.
func (s *Store) writableLocked(sl slot) slot {
	if sl.shared {
		sl.b = bytes.Clone(sl.b)
		sl.shared = false
		s.shared--
	}
	sl.checked = false
	s.writes++
	return sl
}

// Read returns the payload at addr. The returned slice must not be
// modified by the caller.
func (s *Store) Read(addr uint64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sl, ok := s.slots[addr]
	if !ok {
		return nil, fmt.Errorf("store: read of unallocated address %d", addr)
	}
	return sl.b, nil
}

// ReadChecked is Read that also reports whether the payload passes
// sum(payload) == want. The slot remembers the last want it passed, so a
// payload that passed want and has not been written since is not hashed
// again; one that was written (placed, rotted, repaired or freed and
// reused) is hashed on its next check. A failure is never remembered.
// sum must be the same function on every call (a verdict records want,
// not how it was computed), and must not call the store.
//
// The hash runs under the read lock, so no write can change the bytes
// under it; the verdict is recorded under the write lock afterwards, and
// only if no write has landed in between, so a verdict never outlives the
// bytes it was computed on.
func (s *Store) ReadChecked(addr uint64, want uint32, sum func([]byte) uint32) (payload []byte, ok bool, err error) {
	s.mu.RLock()
	sl, found := s.slots[addr]
	if !found {
		s.mu.RUnlock()
		return nil, false, fmt.Errorf("store: read of unallocated address %d", addr)
	}
	if sl.checked && sl.sum == want {
		s.mu.RUnlock()
		return sl.b, true, nil
	}
	writes := s.writes
	ok = sum(sl.b) == want
	s.mu.RUnlock()
	if ok {
		s.mu.Lock()
		if s.writes == writes { // then the slot is still there, its bytes those just hashed
			cur := s.slots[addr] // Share may have marked it since
			cur.sum, cur.checked = want, true
			s.slots[addr] = cur
		}
		s.mu.Unlock()
	}
	return sl.b, ok, nil
}

// Corrupt flips one byte of the payload at addr in place — the at-rest
// bit-rot hook. The store itself keeps no checksums (the cVolume's block
// pointers do), so the damage is latent until a read or a scrub checks
// the payload; the slot forgets its verdict, so the next ReadChecked
// hashes the rotted bytes.
func (s *Store) Corrupt(addr uint64, off int64, xor byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.slots[addr]
	if !ok {
		return fmt.Errorf("store: corrupt of unallocated address %d", addr)
	}
	if off < 0 || off >= int64(len(sl.b)) {
		return fmt.Errorf("store: corrupt offset %d outside payload of %d bytes", off, len(sl.b))
	}
	if xor == 0 {
		return fmt.Errorf("store: zero XOR mask would not corrupt")
	}
	sl = s.writableLocked(sl)
	sl.b[off] ^= xor
	s.slots[addr] = sl
	return nil
}

// Rewrite replaces the payload at addr with one of identical length — the
// resilver hook that heals a rotted block in place without disturbing the
// volume's physical layout. Length-changing rewrites are refused: repair
// data is re-encoded exactly as the original was, so a size mismatch
// means the repair data is wrong. The slot forgets its verdict: the
// repaired bytes are hashed on their next check.
func (s *Store) Rewrite(addr uint64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.slots[addr]
	if !ok {
		return fmt.Errorf("store: rewrite of unallocated address %d", addr)
	}
	if len(sl.b) != len(payload) {
		return fmt.Errorf("store: rewrite length %d != stored %d", len(payload), len(sl.b))
	}
	sl = s.writableLocked(sl)
	copy(sl.b, payload)
	s.slots[addr] = sl
	return nil
}

// Free releases the payload at addr, making its extent reusable.
func (s *Store) Free(addr uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.slots[addr]
	if !ok {
		return fmt.Errorf("store: free of unallocated address %d", addr)
	}
	delete(s.slots, addr)
	if sl.shared {
		s.shared--
	}
	s.writes++
	size := int64(len(sl.b))
	s.used -= size
	if size == 0 {
		size = 1
	}
	s.free = append(s.free, extent{addr: addr, size: size})
	s.frees++
	return nil
}

// Stats describes the store's occupancy.
type Stats struct {
	Blocks     int64 // live payload count
	UsedBytes  int64 // Σ live payload sizes
	SpanBytes  int64 // high-water address (allocated span, incl. holes)
	Allocs     int64
	Frees      int64
	FreeChunks int64 // fragmentation indicator
	Shared     int64 // payloads aliased to a slice shared across stores
}

// Stats returns current occupancy numbers. O(1): UsedBytes is a running
// total, everything else a length or a counter.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Blocks:     int64(len(s.slots)),
		UsedBytes:  s.used,
		SpanBytes:  int64(s.next),
		Allocs:     s.allocs,
		Frees:      s.frees,
		FreeChunks: int64(len(s.free)),
		Shared:     s.shared,
	}
}
