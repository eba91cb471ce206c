// Package zvol implements the cVolume: Squirrel's deduplicated,
// compressed, snapshot-capable block volume — the role the ZFS file system
// plays in the paper. A Volume stores named objects (VMI caches or whole
// VMIs) as sequences of fixed-size blocks that are zero-suppressed,
// content-hashed, deduplicated through a refcounted DDT, compressed
// inline, and placed in a flat physical address space.
//
// On top of the block layer, a Volume supports named read-only snapshots,
// incremental send/receive streams between snapshots (the mechanism
// Squirrel uses to propagate new VMI caches from the scVolume to all
// ccVolumes, §3.2/§3.5 of the paper), and snapshot garbage collection with
// a retention window (§3.4).
//
// Who holds what. An object's blocks are referenced once — in the DDT, or
// owned outright without dedup — when the object is written or received,
// and the volume holds the object once, in birth order (Volume.held),
// until it releases those blocks. Time is counted in transaction groups,
// as in ZFS: the volume keeps one open (Volume.txg), an object records the
// interval [born, died) during which the live table listed it, and a
// snapshot is the stamp of the group it closed — it lists exactly the
// objects with born ≤ stamp < died. Nothing is copied or counted per
// object when a snapshot is taken or destroyed: an object is released
// exactly when it is dead and no surviving snapshot's stamp lies in
// [born, died). The DDT's reference count is therefore the paper's: block
// pointers of held objects over unique blocks, the same before and after
// a snapshot.
//
// Who owns a payload. The store owns the bytes at an address: a copy of
// the caller's data when a block is stored raw, the codec's fresh output
// itself when it is stored compressed. A registration's payloads exist
// once across the deployment: Send lends the sender's stored slices out
// (store.Share) and prepared receivers alias them (store.AllocShared),
// every slot involved copy-on-write, so a payload is copied exactly when
// one side rots or repairs its own (see prepared.go).
//
// How a block gets in. There is one block write (writeBlockLocked: ask
// the DDT, else place the stored form) under WriteObject and under the
// one stream apply path (receive: verify, journal, stage, commit).
// WriteObject compresses its new blocks concurrently, ahead of that
// write, and still places every block in stream order. A
// stream always reaches that path prepared — by its sender (Send ships
// stored forms, which Prepare hands out as they are and ReceivePrepared
// aliases: nothing is hashed, inflated or compressed on the way) or, for
// a raw stream decoded off a wire, by the receiver for itself (Receive:
// hashes now, stored forms at the block write). A sent stream's logical
// bytes exist only when asked for: Encode inflates its payloads as it
// writes them, which a registration does only for a delivery a fault
// damaged.
//
// Reads are whole-object (ReadObject, ReadObjectAt, ReadBlock) or by
// range, touching only the blocks the range covers — what the paper's
// boot path asks of its volume: Visit lends the range's bytes. All are
// one walk over one block read, lendBlock, which verifies a block
// (stored length, the stored payload's CRC32C, an exact-length codec
// decode) and then lends its decoded bytes instead of copying them, as
// ZFS's dmu_buf_hold hands a reader a held ARC buffer, so none can
// return a byte that skipped a check. Visit lends nothing of
// a range until every block under it has passed. As in ZFS, SHA-256 is
// the dedup key, computed once at write: a read never recomputes it, and
// Scrub alone checks the decoded bytes against it (see scrub.go). What a
// read does not repeat is the inflate: once a compressed block has passed
// its checks, the bytes lent are the process's one decoded-block cache's
// entry for it, keyed by the stored payload so that every replica
// aliasing it shares the entry (see decoded.go). The cache is sized to
// hold a warm deployment's working set and fills each entry once, with
// the block a miss decodes, concurrent readers of a block waiting for the
// one decode, so a block is inflated once per process for as long as it
// stays cached. Scrub decodes every block from the disk; Send decodes
// none, it lends each checked payload as it is stored. Nor does a read
// repeat the CRC32C of a payload nobody has written since it passed:
// the store remembers each slot's verdict until the next write to it
// (checkedPayload); Scrub alone hashes every payload on every pass.
package zvol

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/compress"
	"repro/internal/conc"
	"repro/internal/dedup"
	"repro/internal/metrics"
	"repro/internal/store"
)

// Config selects the volume's storage policy. The zero value is not
// usable; call DefaultConfig for the paper's chosen configuration.
type Config struct {
	BlockSize block.Size // record size; the paper settles on 64 KB
	Codec     string     // compress codec name; "" or "null" disables
	Dedup     bool       // deduplicate through the DDT
}

// DefaultConfig is the configuration the paper converges on for cVolumes:
// 64 KB blocks, gzip-6, dedup on.
func DefaultConfig() Config {
	return Config{BlockSize: block.Default, Codec: "gzip6", Dedup: true}
}

// minCompressGain is ZFS's rule: a block is stored compressed only when
// compression saves more than this fraction of it (12.5%).
const minCompressGain = 0.125

// blockPtr locates one logical block of an object. Zero blocks are holes:
// they carry no address and never touch the DDT or the store, which is how
// sparse images shrink from 16.4 TB to 1.4 TB in Table 1.
type blockPtr struct {
	hash       block.Hash
	addr       uint64
	physLen    int32
	logLen     int32
	zero       bool
	compressed bool
	// physHash is block.Checksum (CRC32C) of the stored payload bytes
	// themselves (the possibly-compressed on-disk form), like a ZFS
	// blkptr's checksum. It is the one checksum a read computes (once
	// per write of the payload: see checkedPayload), so even a flip in a
	// codec header byte that decodes to the same content is caught. hash
	// is the SHA-256 of the logical content: it drives dedup, and only
	// Scrub and RepairBlock compute it again.
	physHash block.Hash
}

// Object is a named block sequence stored in a volume. Objects are
// immutable once written, so the live table and every snapshot that
// lists an object share the one struct.
type Object struct {
	Name string
	Size int64 // logical size in bytes
	ptrs []blockPtr
	// born is the transaction group that was open when the object entered
	// the live table, died the one open when it left (0 while live). The
	// snapshots whose stamp lies in [born, died) list the object; once it
	// is dead and none survives, its blocks are released. Guarded by the
	// volume's mu.
	born, died uint64
}

// Snapshot is an immutable, named view of a volume's full object set: the
// stamp of the transaction group it closed. It lists the objects that
// were on the live table at that moment, which the volume finds by their
// [born, died) intervals rather than by a copy of the table.
type Snapshot struct {
	Name    string
	Created time.Time
	txg     uint64  // the transaction group the snapshot closed
	ptrs    int64   // Σ len(ptrs) over the listed objects, fixed at creation (Stats' metadata term)
	vol     *Volume // holds the objects the stamp lists
}

// lists reports whether o was on the live table when s was taken.
func (s *Snapshot) lists(o *Object) bool {
	return o.born <= s.txg && (o.died == 0 || s.txg < o.died)
}

// Objects lists the object names captured by the snapshot, sorted. It
// answers for a snapshot its volume still has; a destroyed one lists what
// outlived it.
func (s *Snapshot) Objects() []string {
	v := s.vol
	v.mu.RLock()
	defer v.mu.RUnlock()
	names := []string{}
	for _, o := range v.held[:v.bornThroughLocked(s.txg)] {
		if s.lists(o) {
			names = append(names, o.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Volume is a thread-safe cVolume.
type Volume struct {
	mu    sync.RWMutex
	cfg   Config
	codec compress.Codec
	store *store.Store
	ddt   *dedup.Table

	objects map[string]*Object
	// held is every object whose blocks the volume still references — the
	// live table's and the dead ones some snapshot lists — each once, in
	// birth order, so the objects a stamp can list are a prefix and the
	// ones born between two stamps a range, both found by binary search.
	held []*Object
	// txg is the open transaction group: births and deaths are stamped
	// with it, a snapshot closes it. It starts at 1, so 0 precedes every
	// birth and marks a live object's death.
	txg        uint64
	snaps      []*Snapshot          // creation-ordered, so ascending by txg
	snapByName map[string]*Snapshot // the same snapshots by name

	// Running totals Stats reads instead of walking the tables, guarded by
	// mu: setObjectLocked moves the live pair, snapshotLocked and
	// destroySnapLocked the snapshot sum.
	liveBytes int64 // Σ Size over objects
	livePtrs  int64 // Σ len(ptrs) over objects
	snapPtrs  int64 // Σ Snapshot.ptrs over snaps

	// chunker splits WriteObject's input; kept across calls (under mu) so
	// its block-sized buffer is allocated once per volume.
	chunker *block.Chunker
	// writes recycles WriteObject's read-ahead (*objectWrite) and so its
	// miss buffers, at most GOMAXPROCS blocks: dropped after every write,
	// they doubled a registration's garbage, and the extra collections
	// showed as resident memory. Unlike the chunker's buffer, the pool's
	// contents go at the second collection that finds them unused.
	writes sync.Pool

	logicalWritten int64 // bytes accepted by WriteObject (incl. zeros)
	zeroBytes      int64 // bytes suppressed as holes

	// journal is the open receive journal of a torn apply, nil when
	// consistent. crashPoint/armed arm a one-shot injected crash for the
	// next Receive (see SetReceiveCrashPoint).
	journal    *receiveJournal
	crashPoint int
	armed      bool

	// counters is the deployment-wide counter registry (nil-safe; nil
	// drops updates). Receive and Recover account stream applies and
	// journal rollbacks here when telemetry is enabled.
	counters *metrics.CounterSet
}

// SetCounters points the volume's accounting at a shared counter
// registry. A nil volume ignores the call.
func (v *Volume) SetCounters(c *metrics.CounterSet) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.counters = c
	v.mu.Unlock()
}

// New creates an empty volume. It returns an error for invalid block sizes
// or unknown codecs.
func New(cfg Config) (*Volume, error) {
	if !cfg.BlockSize.Valid() {
		return nil, fmt.Errorf("zvol: invalid block size %d", cfg.BlockSize)
	}
	name := cfg.Codec
	if name == "" {
		name = "null"
	}
	codec, err := compress.Get(name)
	if err != nil {
		return nil, err
	}
	return &Volume{
		cfg:        cfg,
		codec:      codec,
		store:      store.New(),
		ddt:        dedup.NewTable(),
		objects:    make(map[string]*Object),
		txg:        1,
		snapByName: make(map[string]*Snapshot),
	}, nil
}

// Config returns the volume's configuration.
func (v *Volume) Config() Config { return v.cfg }

// Errors returned by volume operations.
var (
	ErrExists      = errors.New("zvol: object already exists")
	ErrNotFound    = errors.New("zvol: not found")
	ErrSnapExists  = errors.New("zvol: snapshot already exists")
	ErrNotAncestor = errors.New("zvol: incremental source snapshot not present")
	ErrBadStream   = errors.New("zvol: stream failed verification")
	// ErrCorrupt marks a stored block whose payload no longer matches its
	// block pointer's checksum (at-rest bit-rot). Reads fail rather than
	// return damaged bytes; Scrub enumerates the damage and RepairBlock
	// heals it.
	ErrCorrupt = errors.New("zvol: block failed checksum")
	// ErrTorn is returned by Receive when the (injected) node crash fires
	// mid-apply: the volume is left with a partially-applied stream and an
	// open receive journal that Recover must roll back.
	ErrTorn = errors.New("zvol: receive torn by crash")
	// ErrNeedsRecovery refuses new receives while a torn receive's
	// journal is still open.
	ErrNeedsRecovery = errors.New("zvol: open receive journal, run Recover first")
	// ErrBadRepair rejects repair data that does not match the damaged
	// block's recorded checksum — a rotten source must never be written
	// into a replica.
	ErrBadRepair = errors.New("zvol: repair data failed verification")
)

// WriteObject stores the stream r as a new object. Writing over an
// existing name is refused; delete first (Squirrel objects — VMI caches —
// are immutable once registered).
//
// The write is a bounded pipeline under the volume lock, as ZFS
// compresses a transaction group's blocks on its write-issue threads and
// places each by its pointer: the calling goroutine reads each block,
// checks it for zeros, hashes it and asks the DDT, in stream order; a
// block the DDT does not hold, and that repeats no earlier miss of the
// window, goes at once to a compress helper (conc.Stream, one per extra
// P) while the caller reads on. At the end of each window of writeWindow
// blocks the caller encodes whatever is still queued, waits for the
// helpers, and places the window's blocks in stream order through
// writeBlockLocked, so addresses, DDT entries and stored bytes are the
// same at any GOMAXPROCS. A failed read leaves the volume as it was.
func (v *Volume) WriteObject(name string, r io.Reader) (*Object, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, dup := v.objects[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	if v.chunker == nil { // on first write: a replica that only receives never needs the buffer
		ch, err := block.NewChunker(nil, v.cfg.BlockSize)
		if err != nil {
			return nil, err
		}
		v.chunker = ch
	}
	v.chunker.Reset(r)
	defer v.chunker.Reset(nil) // do not pin the caller's reader
	w, _ := v.writes.Get().(*objectWrite)
	if w == nil {
		w = &objectWrite{v: v}
	}
	defer v.writes.Put(w)
	obj, err := w.run(name)
	if err != nil {
		return nil, err
	}
	v.addObjectLocked(obj)
	return obj, nil
}

// run is one WriteObject of the chunker's stream as object name: the
// read-ahead, window by window, then the running totals. On a failed read
// it rolls back the windows already placed. w is left empty either way,
// holding only its miss buffers. Caller holds v.mu.
func (w *objectWrite) run(name string) (*Object, error) {
	v := w.v
	w.obj, w.zeros = &Object{Name: name}, 0
	w.workers = runtime.GOMAXPROCS(0)
	w.encoders = conc.NewStream(writeWindow, w.workers, w.encodeOne)
	defer func() { w.obj, w.encoders = nil, nil }()
	if err := v.chunker.ForEach(w.read); err != nil {
		w.encoders.Wait() // no helper outlives the write
		w.win, w.n, w.filled = [writeWindow]pendingBlock{}, 0, 0
		v.releasePtrsLocked(w.obj.ptrs)
		return nil, err
	}
	w.place()
	v.logicalWritten += w.obj.Size
	v.zeroBytes += w.zeros
	return w.obj, nil
}

// writeWindow is how many blocks WriteObject reads ahead of the last one
// it placed: the misses among them compress concurrently. 16 blocks is
// 1 MiB at the paper's 64 KB, more than the new blocks of a registration
// (1–4), so a registration's misses share one window.
const writeWindow = 16

// objectWrite is one WriteObject's read-ahead: the blocks read since the
// last placement, the stream their encodes run on, and one miss buffer
// per worker (the chunker reuses its own buffer, so a queued miss is
// copied into one of these until its encode has run). Between writes it
// rests in Volume.writes with only its buffers: at most GOMAXPROCS
// blocks, however many misses a write has.
type objectWrite struct {
	v        *Volume
	obj      *Object
	zeros    int64 // hole bytes among the blocks read
	win      [writeWindow]pendingBlock
	n        int // blocks in win
	encoders *conc.Stream
	workers  int      // the encoders' goroutines, the caller's included
	bufs     [][]byte // miss buffers, at most workers
	filled   int      // bufs holding a miss whose encode may not have run
}

// pendingBlock is one block read and not yet placed.
type pendingBlock struct {
	pb     PreparedBlock // content hash and length
	zero   bool
	queued bool       // a miss handed to the encoders
	data   []byte     // a queued miss's bytes (a miss buffer), until its encode has run
	enc    storedForm // encode(data), once it has run
}

// encodeOne is one compress job: the stored form of the window's block i.
func (w *objectWrite) encodeOne(i int) {
	p := &w.win[i]
	p.enc = w.v.encode(p.data)
}

// read classifies one chunk in stream order and, once the window is
// full, places it. A miss needs a free buffer: when every one holds a
// miss, the caller first finishes the queued encodes (running those no
// helper has taken), so a write holds no more blocks in flight than it
// has workers.
func (w *objectWrite) read(c block.Chunk) error {
	v := w.v
	w.obj.Size += int64(len(c.Data))
	p := &w.win[w.n]
	*p = pendingBlock{pb: PreparedBlock{LogLen: int32(len(c.Data))}, zero: c.Zero}
	if c.Zero {
		w.zeros += int64(len(c.Data))
	} else {
		p.pb.Hash = block.HashOf(c.Data)
		if v.ddt.Lookup(p.pb.Hash) == nil && !w.queuedIn(p.pb.Hash) {
			if w.filled == len(w.bufs) {
				if len(w.bufs) < w.workers {
					w.bufs = append(w.bufs, make([]byte, v.cfg.BlockSize))
				} else {
					w.encoders.Wait()
					w.filled = 0
				}
			}
			p.data = w.bufs[w.filled][:copy(w.bufs[w.filled], c.Data)]
			p.queued = true
			w.filled++
			w.encoders.Add(w.n)
		}
	}
	if w.n++; w.n == writeWindow {
		w.place()
	}
	return nil
}

// queuedIn reports whether the window already queued a miss hashing to
// h, which the DDT will hold by the time this block is placed. Without
// dedup nothing is shared, so every block is its own miss.
func (w *objectWrite) queuedIn(h block.Hash) bool {
	if !w.v.cfg.Dedup {
		return false
	}
	for i := range w.win[:w.n] { // by index: a helper may be writing a block's enc
		if p := &w.win[i]; p.queued && p.pb.Hash == h {
			return true
		}
	}
	return false
}

// place finishes the window: every queued encode done, then each block
// placed in stream order.
func (w *objectWrite) place() {
	w.encoders.Wait()
	for i := range w.win[:w.n] {
		p := &w.win[i]
		ptr := blockPtr{zero: true, logLen: p.pb.LogLen}
		if !p.zero {
			var enc *storedForm
			if p.queued {
				enc = &p.enc
			}
			ptr = w.v.writeBlockLocked(&p.pb, nil, enc)
		}
		w.obj.ptrs = append(w.obj.ptrs, ptr)
		*p = pendingBlock{} // hold no payload past its placement
	}
	w.n, w.filled = 0, 0
}

// addObjectLocked is an object's birth: stamped with the open transaction
// group, held, and put on the live table under its name (displacing what
// was there, which the caller retires).
func (v *Volume) addObjectLocked(obj *Object) {
	obj.born = v.txg
	v.held = append(v.held, obj)
	v.setObjectLocked(obj.Name, obj)
}

// setObjectLocked is the one place the live table changes: it puts obj
// under name, replacing what was there, or with a nil obj removes name,
// and moves the live totals by the difference.
func (v *Volume) setObjectLocked(name string, obj *Object) {
	if old, ok := v.objects[name]; ok {
		v.liveBytes -= old.Size
		v.livePtrs -= int64(len(old.ptrs))
	}
	if obj == nil {
		delete(v.objects, name)
		return
	}
	v.objects[name] = obj
	v.liveBytes += obj.Size
	v.livePtrs += int64(len(obj.ptrs))
}

// refStoredLocked is the DDT-hit branch every block write opens with: when
// the DDT already stores a block under h, it takes one more reference and
// returns a pointer to that stored copy. ok is false when the DDT does not
// know h — always, without dedup: nothing is ever entered in the table.
// Caller holds v.mu.
func (v *Volume) refStoredLocked(h block.Hash, logLen int32) (ptr blockPtr, ok bool) {
	e := v.ddt.Lookup(h)
	if e == nil {
		return blockPtr{}, false
	}
	v.ddt.AddRef(h)
	return blockPtr{hash: h, addr: e.Addr, physLen: e.PhysLen, logLen: logLen,
		compressed: e.Compressed, physHash: e.PhysHash}, true
}

// writeBlockLocked stores one nonzero block and returns its pointer. pb
// carries the block's content hash and, when the block arrived in a
// sender-prepared stream, its stored form. The DDT is asked before
// anything else; a block it does not hold is placed from the prepared
// stored form (aliased, not copied) when there is one, and otherwise from
// encode's result for the block's logical bytes: enc when the caller ran
// encode ahead of time (WriteObject's helpers), else encode(data) here —
// the one case that reads data. Caller holds v.mu.
func (v *Volume) writeBlockLocked(pb *PreparedBlock, data []byte, enc *storedForm) blockPtr {
	if ptr, ok := v.refStoredLocked(pb.Hash, pb.LogLen); ok {
		return ptr
	}
	e := storedForm{payload: pb.Payload, compressed: pb.Compressed, physHash: pb.PhysHash}
	var addr uint64
	if e.payload != nil {
		addr = v.store.AllocShared(e.payload) // other volumes hold the slice too
	} else {
		if enc == nil {
			e = v.encode(data)
		} else {
			e = *enc
		}
		addr = v.store.AllocOwned(e.payload) // encode's fresh output: nothing else holds it
	}
	ptr := blockPtr{hash: pb.Hash, addr: addr, physLen: int32(len(e.payload)),
		logLen: pb.LogLen, compressed: e.compressed, physHash: e.physHash}
	if v.cfg.Dedup {
		v.ddt.Reference(pb.Hash, addr, ptr.physLen, ptr.logLen, e.compressed, e.physHash)
	}
	return ptr
}

// storedForm is a nonzero block's stored form and its checksum, as
// encode makes it.
type storedForm struct {
	payload    []byte
	compressed bool
	physHash   block.Hash
}

// encode returns the stored form of a nonzero block and its checksum:
// compressed when the codec saves more than the minimum gain, a copy of
// the data otherwise. The payload is fresh either way, so data may be
// reused once encode returns. It reads only the volume's fixed
// configuration, so WriteObject's helpers run it concurrently.
func (v *Volume) encode(data []byte) storedForm {
	var e storedForm
	if v.codec.Name() != "null" {
		comp := v.codec.Compress(data)
		if gain := 1 - float64(len(comp))/float64(len(data)); gain > minCompressGain {
			e.payload, e.compressed = comp, true
		}
	}
	if !e.compressed {
		e.payload = bytes.Clone(data)
	}
	e.physHash = block.Checksum(e.payload)
	return e
}

// retireLocked is the death of obj, which the caller has taken off the
// live table: stamped with the open transaction group, and released at
// once unless a snapshot lists it. Every snapshot's stamp is below the
// open group, so that is the latest snapshot or none.
func (v *Volume) retireLocked(obj *Object) {
	obj.died = v.txg
	if n := len(v.snaps); n > 0 && v.snaps[n-1].txg >= obj.born {
		return
	}
	v.unholdLocked(obj)
	v.releasePtrsLocked(obj.ptrs)
}

// unholdLocked takes obj off the held list.
func (v *Volume) unholdLocked(obj *Object) {
	i := v.bornThroughLocked(obj.born - 1)
	for v.held[i] != obj { // among the objects born in the same group
		i++
	}
	v.held = slices.Delete(v.held, i, i+1)
}

// bornThroughLocked counts the held objects born in or before txg:
// held[:n] is every object a snapshot stamped txg can list.
func (v *Volume) bornThroughLocked(txg uint64) int {
	return sort.Search(len(v.held), func(i int) bool { return v.held[i].born > txg })
}

// releasePtrsLocked drops references for ptrs, freeing blocks whose last
// reference is gone. Without dedup every pointer owns its block.
func (v *Volume) releasePtrsLocked(ptrs []blockPtr) {
	for _, p := range ptrs {
		if p.zero {
			continue
		}
		if v.cfg.Dedup {
			if e, freed, err := v.ddt.Release(p.hash); err == nil && freed {
				v.store.Free(e.Addr)
			}
		} else {
			v.store.Free(p.addr)
		}
	}
}

// ReadObject returns the full content of the named object in the live
// object table.
func (v *Volume) ReadObject(name string) ([]byte, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	obj, err := v.objectLocked(name)
	if err != nil {
		return nil, err
	}
	return v.materialize(obj)
}

// Visit runs fn on bytes [off, off+n) of the named live object, lent
// block by block in order: on a decoded-block cache hit the cache's entry
// itself, on a miss the block just decoded (which becomes the entry), for
// a raw block its stored payload, for a hole a shared zero block. Nothing
// is copied, and only the blocks the range touches are read. fn runs
// under the volume's read lock, so it must not write to the volume, and
// only once every block the range touches has passed its checks, exactly
// as a whole-object read checks them, so it sees the whole range or,
// when any block fails, none of it: a rotted block fails the ranges that
// overlap it with ErrCorrupt while ranges clear of it are served, and a
// caller that re-serves a failed range from elsewhere never delivers a
// byte twice. The range must lie inside the object: one outside it, or
// an unknown object, is an error and fn never runs. The bytes are lent:
// fn must neither write them nor keep them past its return.
func (v *Volume) Visit(name string, off, n int64, fn func(p []byte)) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	obj, err := v.objectLocked(name)
	if err != nil {
		return err
	}
	var held [4][]byte // a range no wider than a block touches at most two
	lent := held[:0]
	if err := v.walk(obj, off, n, func(p []byte) { lent = append(lent, p) }); err != nil {
		return err
	}
	for _, p := range lent {
		fn(p)
	}
	return nil
}

// materialize reconstructs an object's bytes. Caller holds v.mu.
func (v *Volume) materialize(obj *Object) ([]byte, error) {
	out := make([]byte, obj.Size)
	p := out
	if err := v.walk(obj, 0, obj.Size, func(b []byte) { p = p[copy(p, b):] }); err != nil {
		return nil, err
	}
	return out, nil
}

// walk is the one object read loop: for each block [off, off+n) touches,
// in order, it lends fn the covered part of the block's bytes (lendBlock,
// or zeroBlock for a hole), and stops at the first block that fails its
// checks. Block extents come
// from walking the pointer list rather than dividing by the block size,
// because a received object keeps its sender's block lengths. Caller
// holds v.mu.
func (v *Volume) walk(obj *Object, off, n int64, fn func(p []byte)) error {
	if off < 0 || n < 0 || n > obj.Size-off {
		return fmt.Errorf("zvol: read [%d,+%d) outside object %s of %d bytes",
			off, n, obj.Name, obj.Size)
	}
	start := int64(0) // object offset of block i
	for i := 0; n > 0; i++ {
		bp := obj.ptrs[i]
		end := start + int64(bp.logLen)
		if end <= off {
			start = end
			continue
		}
		lo := off - start // first wanted byte within the block
		k := min(n, int64(bp.logLen)-lo)
		if bp.zero {
			fn(zeroBlock[:k])
		} else {
			b, err := v.lendBlock(bp)
			if err != nil {
				return fmt.Errorf("zvol: object %s block %d: %w", obj.Name, i, err)
			}
			fn(b[lo : lo+k])
		}
		off, n, start = off+k, n-k, end
	}
	return nil
}

// zeroBlock is every hole's content, lent read-only: as large as the
// largest block size, which no pointer exceeds (Receive refuses a longer
// one), so a hole costs no allocation.
var zeroBlock [block.Size1024K]byte

// checksum is the CRC32C a read verifies a stored payload with
// (block.CRC32C); a test counts the bytes hashed through it.
var checksum = block.CRC32C

// checkedPayload fetches block p's stored payload and checks it: it must
// be physLen bytes long and match physHash (CRC32C). It is the check
// every block read makes before it decodes, and the only one a decode
// cache hit repeats — but the hash runs once per write of the payload,
// not once per read: the store remembers the checksum a slot last passed
// and forgets it on every write to the slot (store.ReadChecked), so a
// payload that passed and has not been placed, rotted, repaired or freed
// since is not hashed again (TestChecksumVerdictLifecycle counts the
// bytes hashed; TestChecksumVerdictUnderConcurrentRotAndRepair races
// reads against rot and repair). Caller holds v.mu from the lookup that
// produced p, so p's extent cannot be freed and reused, nor rot or be
// repaired in place, under the read.
func (v *Volume) checkedPayload(p blockPtr) ([]byte, error) {
	payload, intact, err := v.store.ReadChecked(p.addr, block.CRC32COf(p.physHash), checksum)
	if err == nil {
		err = payloadErr(p, payload, intact)
	}
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// payloadErr is the verdict on block p's stored payload, given whether
// its CRC32C matched: a wrong length fails first.
func payloadErr(p blockPtr, payload []byte, intact bool) error {
	if int32(len(payload)) != p.physLen {
		return fmt.Errorf("%w: %d bytes stored, pointer says %d", ErrCorrupt, len(payload), p.physLen)
	}
	if !intact {
		return ErrCorrupt
	}
	return nil
}

// readBlockInto fetches, checksum-verifies and decodes one stored block
// into dst, which must be exactly p.logLen bytes, without the
// decoded-block cache or the store's verdict: Scrub is the at-rest audit,
// so it reads each block from the disk and hashes every payload on every
// pass. The stored payload must pass checkedPayload's checks, then decode
// without error to exactly logLen bytes (for gzip that includes its own
// CRC32/ISIZE trailer; a raw payload decodes by copy). The logical
// SHA-256 is not recomputed: an intact payload decodes to the bytes it
// was encoded from, and Scrub is where the pointer's logical hash is
// checked end to end. Any failure surfaces as ErrCorrupt instead of
// corrupt bytes, so damage can never be served to a boot or a peer; dst's
// contents are then unspecified. Caller holds v.mu.
func (v *Volume) readBlockInto(p blockPtr, dst []byte) error {
	payload, err := v.store.Read(p.addr)
	if err == nil {
		err = payloadErr(p, payload, checksum(payload) == block.CRC32COf(p.physHash))
	}
	if err != nil {
		return err
	}
	codec := v.codec
	if !p.compressed {
		codec = compress.Null{}
	}
	if err := codec.DecompressInto(dst, payload); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// lendPayloadLocked is Send's block read: block p's stored payload,
// checked as every read checks it (checkedPayload: length and CRC32C,
// the latter hashed only if the slot was written since it last passed) and
// then lent through store.Share instead of decoded. The slot turns
// copy-on-write, so the sender's later rot or repair of it never reaches
// the lent bytes. Caller holds v.mu.
func (v *Volume) lendPayloadLocked(p blockPtr) ([]byte, error) {
	if _, err := v.checkedPayload(p); err != nil {
		return nil, err
	}
	return v.store.Share(p.addr)
}

// lendBlock is the block read every object read makes: it returns stored
// block p's logLen decoded bytes, lent, after checkedPayload's checks (a
// payload unwritten since it last passed is not hashed again) and an
// exact-length decode. A raw block is its checked payload, whose decode
// would be a copy of it. A compressed block is the decoded-block cache's entry for
// this very payload when it holds one, or when another reader's decode of
// it is in flight, once that ends; otherwise it is decoded into a fresh
// block, which becomes the entry. The returned bytes must not be written;
// a raw payload is valid only while the caller holds v.mu. Caller holds
// v.mu.
func (v *Volume) lendBlock(p blockPtr) ([]byte, error) {
	payload, err := v.checkedPayload(p)
	if err != nil {
		return nil, err
	}
	if !p.compressed {
		if int32(len(payload)) != p.logLen {
			return nil, fmt.Errorf("%w: raw payload of %d bytes, block is %d", ErrCorrupt, len(payload), p.logLen)
		}
		return payload, nil
	}
	data, fill := decoded.get(&payload[0], p.physHash, p.logLen)
	if data != nil {
		v.counters.Add("zvol.decode.hit", 1)
		return data, nil
	}
	v.counters.Add("zvol.decode.miss", 1)
	data = make([]byte, p.logLen)
	if err := v.codec.DecompressInto(data, payload); err != nil {
		if fill != nil {
			decoded.finish(fill, nil)
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if fill != nil {
		decoded.finish(fill, data)
	}
	return data, nil
}

// ReadBlock returns the idx-th logical block of the named object along
// with its physical address (0 and zero=true for holes). The boot
// simulator uses the address to model seeks.
func (v *Volume) ReadBlock(name string, idx int) (data []byte, addr uint64, zero bool, err error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	obj, err := v.objectLocked(name)
	if err != nil {
		return nil, 0, false, err
	}
	if idx < 0 || idx >= len(obj.ptrs) {
		return nil, 0, false, fmt.Errorf("zvol: block %d out of range for %s", idx, name)
	}
	p := obj.ptrs[idx]
	if p.zero {
		return make([]byte, p.logLen), 0, true, nil
	}
	b, err := v.lendBlock(p)
	if err != nil {
		return nil, p.addr, false, err
	}
	return bytes.Clone(b), p.addr, false, nil
}

// DeleteObject removes an object from the live table. Its blocks remain
// alive while any snapshot still lists it.
func (v *Volume) DeleteObject(name string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	obj, ok := v.objects[name]
	if !ok {
		return fmt.Errorf("%w: object %s", ErrNotFound, name)
	}
	v.setObjectLocked(name, nil)
	v.retireLocked(obj)
	return nil
}

// HasObject reports whether the live table holds name.
func (v *Volume) HasObject(name string) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.objects[name]
	return ok
}

// Objects lists live object names, sorted.
func (v *Volume) Objects() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	names := make([]string, 0, len(v.objects))
	for n := range v.objects {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BlockInfo describes one logical block's physical placement, consumed by
// the boot simulator to model seeks, transfer sizes, and decompression.
type BlockInfo struct {
	Addr       uint64 // physical address in the volume's store
	PhysLen    int32  // bytes read from disk for this block
	LogLen     int32  // logical bytes the block decodes to
	Zero       bool
	Compressed bool
}

// BlockInfos returns the physical layout of every logical block of the
// named live object.
func (v *Volume) BlockInfos(name string) ([]BlockInfo, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	obj, ok := v.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: object %s", ErrNotFound, name)
	}
	out := make([]BlockInfo, len(obj.ptrs))
	for i, p := range obj.ptrs {
		out[i] = BlockInfo{Addr: p.addr, PhysLen: p.physLen, LogLen: p.logLen,
			Zero: p.zero, Compressed: p.compressed}
	}
	return out, nil
}

// Object returns the live object named name.
func (v *Volume) Object(name string) (*Object, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.objectLocked(name)
}

// objectLocked is Object for a caller that holds v.mu. A read keeps the
// lock until its last block is decoded: DeleteObject cannot free the
// object's extents, nor a write reuse them, under it.
func (v *Volume) objectLocked(name string) (*Object, error) {
	obj, ok := v.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: object %s", ErrNotFound, name)
	}
	return obj, nil
}
