// The decoded-block cache: what the host page cache over ZFS's ARC gives
// the paper's reads, a recently inflated block served again without
// inflating it. It sits after every check a read makes (see
// lendBlock), so it replaces a decode and nothing else.
package zvol

import (
	"container/list"
	"sync"

	"repro/internal/block"
)

// decodeBudget bounds the decoded bytes the cache holds: 64 blocks at the
// paper's 64 KB. It is a constant because the cache cannot change any
// output, only the CPU and memory a read costs. A Zipf-1.2 warm-boot mix
// over 32 images touches 58 distinct payloads, 3.62 MiB decoded: 4 MiB is
// the smallest power of two that holds them, so once each has been
// decoded every read is a hit (2 MiB missed 9 % of reads). The RSS it
// costs is only what gets filled: +10 % on a daemon's peak (CHANGES.md
// has the curve).
const decodeBudget = 4 << 20

// decoded is the one cache every volume in the process reads through. A
// cache per volume would decode a registration's blocks once per replica;
// one keyed by stored payload decodes them once, because prepared
// receivers alias the sender's payloads (store.AllocShared). Like a
// sync.Pool it is shared state no caller can observe except through the
// zvol.decode.hit and zvol.decode.miss counters.
var decoded = &decodeCache{entries: make(map[*byte]*decodedBlock)}

// decodeCache is a byte-bounded LRU of decoded compressed blocks whose
// misses are single-flight: the first reader of a key decodes it, later
// readers wait for that decode, as ZFS's ARC holds a header with I/O in
// progress.
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
	bytes   int                     // Σ len(data) over the filled entries, ≤ decodeBudget
	entries map[*byte]*decodedBlock // payload key → entry, filled or in flight
	lru     list.List               // of the filled *decodedBlock, most recently used first

	// watch, when set (only ever by a test), sees each entry under mu as
	// it is filled and again as it is evicted.
	watch func(e *decodedBlock, evicting bool)
}

// decodedBlock is one cache entry. While its fill is in flight el and
// data are nil and done is open; the filler sets data, closes done, and
// never writes data again. A hit lends data itself, so nobody writes it
// after the fill: an evicted entry's data is dropped, never reused,
// because a reader may still hold it outside the lock — a visit holds
// the blocks of its range until the last one has passed, and a later
// block's fill can evict an earlier one's entry meanwhile.
type decodedBlock struct {
	key      *byte
	physHash block.Hash // the checksum the payload had when data was decoded
	logLen   int32
	data     []byte        // the decoded block, logLen bytes; nil until filled, or for good if the fill failed
	done     chan struct{} // closed when the fill ends, filled or not
	el       *list.Element // in lru once filled
	waiters  int           // readers blocked on done, under mu
}

// get looks key up under physHash and logLen. A filled entry is a hit:
// data is its decoded bytes, which must not be written. On a miss fill is
// an in-flight entry the caller now owns: it decodes the block and then
// ends the fill with finish, and every reader of key meanwhile waits for
// it. A miss that returns neither (the key is held under another
// checksum or length, or the block exceeds the budget) decodes without
// the cache, as does a reader whose wait ends in a failed fill.
func (c *decodeCache) get(key *byte, physHash block.Hash, logLen int32) (data []byte, fill *decodedBlock) {
	if logLen > decodeBudget { // no block is (the largest is 1 MB), but eviction could not make room
		return nil, nil
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	switch {
	case !ok:
		e = &decodedBlock{key: key, physHash: physHash, logLen: logLen, done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()
		return nil, e
	case e.physHash != physHash || e.logLen != logLen:
		c.mu.Unlock()
		return nil, nil
	case e.el != nil:
		c.lru.MoveToFront(e.el)
		c.mu.Unlock()
		return e.data, nil
	}
	e.waiters++
	c.mu.Unlock()
	<-e.done
	return e.data, nil
}

// finish ends e's fill. With data (which the cache then owns, and which
// nobody writes again) the entry joins the LRU, evicting least recently
// used entries to stay within the budget; with nil, the decode failed and
// the entry is removed. Either way its waiters are released.
func (c *decodeCache) finish(e *decodedBlock, data []byte) {
	c.mu.Lock()
	if data == nil {
		delete(c.entries, e.key)
	} else {
		for c.bytes+len(data) > decodeBudget {
			old := c.lru.Remove(c.lru.Back()).(*decodedBlock)
			delete(c.entries, old.key)
			c.bytes -= len(old.data)
			if c.watch != nil {
				c.watch(old, true)
			}
		}
		e.data = data
		e.el = c.lru.PushFront(e)
		c.bytes += len(data)
		if c.watch != nil {
			c.watch(e, false)
		}
	}
	c.mu.Unlock()
	close(e.done)
}
