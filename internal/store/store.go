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
package store

import (
	"fmt"
	"sync"
)

// Store is a thread-safe virtual disk. Payloads are stored by address;
// allocation is append-first with first-fit reuse of freed extents.
type Store struct {
	mu     sync.RWMutex
	blocks map[uint64][]byte
	shared map[uint64]struct{} // addresses whose payload is aliased by, or aliases, a slice in other stores
	next   uint64              // bump allocation pointer (bytes)
	free   []extent            // freed extents eligible for reuse, release-ordered (Free appends): first-fit walks them in that order, and deterministic placement depends on it
	used   int64               // Σ len of the payloads in blocks; place and Free keep it (Rewrite and Corrupt preserve lengths)

	allocs int64
	frees  int64
}

type extent struct {
	addr uint64
	size int64
}

// New returns an empty store.
func New() *Store {
	return &Store{blocks: make(map[uint64][]byte)}
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
	b, ok := s.blocks[addr]
	if !ok {
		return nil, fmt.Errorf("store: share of unallocated address %d", addr)
	}
	s.markSharedLocked(addr)
	return b, nil
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
	s.blocks[addr] = payload
	s.used += int64(len(payload))
	if shared {
		s.markSharedLocked(addr)
	}
	return addr
}

func (s *Store) markSharedLocked(addr uint64) {
	if s.shared == nil {
		s.shared = make(map[uint64]struct{})
	}
	s.shared[addr] = struct{}{}
}

// unshareLocked gives addr a private copy of its payload if it currently
// aliases a shared slice. Callers must hold s.mu and must re-read the
// payload from s.blocks afterwards.
func (s *Store) unshareLocked(addr uint64) {
	if _, ok := s.shared[addr]; !ok {
		return
	}
	b := s.blocks[addr]
	cp := make([]byte, len(b))
	copy(cp, b)
	s.blocks[addr] = cp
	delete(s.shared, addr)
}

// Read returns the payload at addr. The returned slice must not be
// modified by the caller.
func (s *Store) Read(addr uint64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blocks[addr]
	if !ok {
		return nil, fmt.Errorf("store: read of unallocated address %d", addr)
	}
	return b, nil
}

// Corrupt flips one byte of the payload at addr in place — the at-rest
// bit-rot hook. The store itself keeps no checksums (the cVolume's block
// pointers do), so the damage is latent until a scrub walks the volume.
func (s *Store) Corrupt(addr uint64, off int64, xor byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blocks[addr]
	if !ok {
		return fmt.Errorf("store: corrupt of unallocated address %d", addr)
	}
	if off < 0 || off >= int64(len(b)) {
		return fmt.Errorf("store: corrupt offset %d outside payload of %d bytes", off, len(b))
	}
	if xor == 0 {
		return fmt.Errorf("store: zero XOR mask would not corrupt")
	}
	s.unshareLocked(addr)
	s.blocks[addr][off] ^= xor
	return nil
}

// Rewrite replaces the payload at addr with one of identical length — the
// resilver hook that heals a rotted block in place without disturbing the
// volume's physical layout. Length-changing rewrites are refused: repair
// data is re-encoded exactly as the original was, so a size mismatch
// means the repair data is wrong.
func (s *Store) Rewrite(addr uint64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blocks[addr]
	if !ok {
		return fmt.Errorf("store: rewrite of unallocated address %d", addr)
	}
	if len(b) != len(payload) {
		return fmt.Errorf("store: rewrite length %d != stored %d", len(payload), len(b))
	}
	s.unshareLocked(addr)
	copy(s.blocks[addr], payload)
	return nil
}

// Free releases the payload at addr, making its extent reusable.
func (s *Store) Free(addr uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blocks[addr]
	if !ok {
		return fmt.Errorf("store: free of unallocated address %d", addr)
	}
	delete(s.blocks, addr)
	delete(s.shared, addr)
	size := int64(len(b))
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
		Blocks:     int64(len(s.blocks)),
		UsedBytes:  s.used,
		SpanBytes:  int64(s.next),
		Allocs:     s.allocs,
		Frees:      s.frees,
		FreeChunks: int64(len(s.free)),
		Shared:     int64(len(s.shared)),
	}
}
