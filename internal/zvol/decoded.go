// The decoded-block cache: what the host page cache over ZFS's ARC gives
// the paper's reads, a recently inflated block served again without
// inflating it. It sits after every check a read makes (see
// readBlockInto), so it replaces a decode and nothing else.
package zvol

import (
	"container/list"
	"sync"

	"repro/internal/block"
)

// decodeBudget bounds the decoded bytes the cache holds: 32 blocks at the
// paper's 64 KB. It is a constant because the cache cannot change any
// output, only the CPU and memory a read costs. At 2 MiB it serves 91 % of
// the block reads of a Zipf-1.2 warm-boot mix over 32 images and adds
// 19 % to a daemon's peak RSS; 3 MiB would serve 98 % for 26 % (CHANGES.md
// has the curve).
const decodeBudget = 2 << 20

// decoded is the one cache every volume in the process reads through. A
// cache per volume would decode a registration's blocks once per replica;
// one keyed by stored payload decodes them once, because prepared
// receivers alias the sender's payloads (store.AllocShared). Like a
// sync.Pool it is shared state no caller can observe except through the
// zvol.decode.hit and zvol.decode.miss counters.
var decoded = &decodeCache{entries: make(map[*byte]*list.Element)}

// decodeCache is a byte-bounded LRU of decoded compressed blocks.
//
// An entry is keyed by the first byte of the stored payload it was decoded
// from. The key is a real pointer, so while an entry names a payload the
// array stays alive and no allocation can reuse its address: a freed and
// re-allocated store extent holds a different slice, a new key, and needs
// no invalidation. A shared payload that rots is copy-on-written by
// store.Corrupt, a new key too; an owned one rots in place, under the same
// key, which is why the CRC32C is checked before the lookup.
type decodeCache struct {
	mu      sync.Mutex
	bytes   int                     // Σ len(data) over the entries, ≤ decodeBudget
	entries map[*byte]*list.Element // payload key → element of lru
	lru     list.List               // of *decodedBlock, most recently used first
}

// decodedBlock is one cache entry. data is never written after the fill
// and an evicted entry's data is dropped, not reused, because a reader may
// still be copying from it outside the lock.
type decodedBlock struct {
	key      *byte
	physHash block.Hash // the checksum the payload had when data was decoded
	data     []byte     // the decoded block, logLen bytes
}

// get returns the decoded bytes filled under key, physHash and logLen, or
// nil. The result must not be written.
func (c *decodeCache) get(key *byte, physHash block.Hash, logLen int32) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	e := el.Value.(*decodedBlock)
	if e.physHash != physHash || len(e.data) != int(logLen) {
		return nil
	}
	c.lru.MoveToFront(el)
	return e.data
}

// put enters data, which the cache then owns, as key's decode, evicting
// least recently used entries to stay within the budget. Two concurrent
// misses on one block both decode it; the first fill wins.
func (c *decodeCache) put(key *byte, physHash block.Hash, data []byte) {
	if len(data) > decodeBudget { // no block is (the largest is 1 MB), but eviction could not make room
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	for c.bytes+len(data) > decodeBudget {
		e := c.lru.Remove(c.lru.Back()).(*decodedBlock)
		delete(c.entries, e.key)
		c.bytes -= len(e.data)
	}
	c.entries[key] = c.lru.PushFront(&decodedBlock{key: key, physHash: physHash, data: data})
	c.bytes += len(data)
}
