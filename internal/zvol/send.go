package zvol

import (
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/compress"
)

// Stream is an incremental (or full) snapshot send stream, the unit
// Squirrel multicasts from the scVolume to all ccVolumes when a VMI is
// registered (§3.2). A stream carries the object-table delta between two
// snapshots plus the payloads of blocks born in that interval; blocks the
// receiver already holds are referenced by hash only, so a new VMI cache
// with high cross-similarity produces an O(10 MB) diff even when the cache
// itself is O(100 MB) (§5.3).
type Stream struct {
	FromSnap string // "" for a full stream
	ToSnap   string
	Created  time.Time

	// Upserts are objects added (Squirrel caches are immutable, so changes
	// only ever add or remove whole objects).
	Upserts []StreamObject
	// Deletes are object names present in FromSnap but not in ToSnap.
	Deletes []string
	// Blocks carries raw (uncompressed) payloads of new-born blocks keyed
	// implicitly by their position; object records reference them by
	// index. Hash-only references (negative index) denote blocks the
	// receiver is assumed to hold already. It is what DecodeStream fills
	// in; a stream Send built leaves it empty and ships sent instead.
	Blocks [][]byte

	// sent is a Send-built stream's shipped blocks in their stored form,
	// parallel to what Blocks would hold: the sender's stored payloads,
	// lent (store.Share), with the hash, length, compression flag and
	// physical checksum of the block pointer they were read through, and
	// codec the sender's, which decodes them. Nothing inflates them unless
	// the logical bytes are asked for — by Encode, or by a Receive that
	// verifies them itself (see eachBlock).
	sent  []PreparedBlock
	codec compress.Codec
}

// StreamObject describes one object in a stream: for each logical block
// either an index among the shipped blocks (Stream.Blocks, or a sent
// stream's stored forms) or -1 with a hash the receiver must already
// know, or a hole.
type StreamObject struct {
	Name string
	Size int64
	Ptrs []StreamPtr
}

// StreamPtr is one logical block reference within a StreamObject.
type StreamPtr struct {
	Zero    bool
	LogLen  int32
	Payload int // index among the shipped blocks, or -1
	Hash    [32]byte
}

// SizeBytes returns the on-wire size of the stream: shipped payloads plus
// a small fixed header per object and per pointer. This is the number
// Squirrel's network accounting charges for registration propagation.
// Payloads count at their logical length, whatever form they are held in.
func (st *Stream) SizeBytes() int64 {
	_, n := st.shipped()
	n += 64 // stream header
	for _, o := range st.Upserts {
		n += 64 + int64(len(o.Name)) + int64(len(o.Ptrs))*40
	}
	for _, d := range st.Deletes {
		n += int64(len(d)) + 8
	}
	return n
}

// shipped returns how many blocks the stream ships and their logical
// bytes: the lengths of Blocks, or the lengths a Send-built stream's
// block pointers record.
func (st *Stream) shipped() (count int, size int64) {
	for _, b := range st.Blocks {
		size += int64(len(b))
	}
	for _, pb := range st.sent {
		size += int64(pb.LogLen)
	}
	return len(st.Blocks) + len(st.sent), size
}

// eachBlock hands fn each shipped block's logical bytes in order: a
// Blocks entry as it is, a sent block raw as its stored payload and
// compressed decoded through the stream's codec into one scratch buffer,
// reused, so fn must not keep what it is handed. It is the only place a
// Send-built stream's payloads are inflated.
func (st *Stream) eachBlock(fn func(data []byte) error) error {
	for _, b := range st.Blocks {
		if err := fn(b); err != nil {
			return err
		}
	}
	var buf []byte
	for i, pb := range st.sent {
		data := pb.Payload
		if pb.Compressed {
			if cap(buf) < int(pb.LogLen) {
				buf = make([]byte, pb.LogLen)
			}
			data = buf[:pb.LogLen]
			if err := st.codec.DecompressInto(data, pb.Payload); err != nil {
				return fmt.Errorf("%w: sent block %d: %v", ErrCorrupt, i, err)
			}
		}
		if err := fn(data); err != nil {
			return err
		}
	}
	return nil
}

// Send produces a stream that transforms a replica holding fromSnap into
// one holding toSnap. fromSnap may be "" for a full stream (used when a
// compute node has been offline longer than the GC window and must
// re-replicate the entire scVolume, §3.5).
//
// A block payload is shipped iff its hash is not referenced anywhere in
// fromSnap; otherwise the stream carries only the hash. This mirrors ZFS's
// incremental send, which ships blocks born after the origin snapshot.
// Upserts, and so the shipped blocks, go in birth order and deletes in the
// birth order of what they remove: one commit always encodes to the same
// bytes. fromSnap must not be the later of the two.
//
// A shipped block travels as it is stored, as `zfs send -c` ships it:
// its payload is checked (length and CRC32C, checkedPayload) and lent
// through store.Share, never inflated, so a rotted block fails Send with
// ErrCorrupt and an intact one costs no codec work. The stream carries
// each block's stored form (Prepare hands it out as it is); Encode
// inflates the payloads only when the wire bytes are asked for.
func (v *Volume) Send(fromSnap, toSnap string) (*Stream, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	to := v.snapByName[toSnap]
	if to == nil {
		return nil, fmt.Errorf("%w: snapshot %s", ErrNotFound, toSnap)
	}
	from := &Snapshot{} // a full stream's origin: stamp 0 precedes every birth and lists nothing
	if fromSnap != "" {
		if from = v.snapByName[fromSnap]; from == nil || from.txg > to.txg {
			return nil, fmt.Errorf("%w: %s", ErrNotAncestor, fromSnap)
		}
	}
	origin := v.held[:v.bornThroughLocked(from.txg)] // every object from can list
	// The objects from lists and to does not left the table in between:
	// their names in birth order, and as a set whose entry turns false when
	// a later object that to lists brings the name back.
	var dropped []string
	gone := map[string]bool{}
	for _, o := range origin {
		if from.lists(o) && !to.lists(o) {
			dropped = append(dropped, o.Name)
			gone[o.Name] = true
		}
	}
	// The upserts are the objects born after from that to lists, less those
	// that bring back a name from lists already: objects are immutable, so
	// same name ⇒ same content, and the name is neither sent nor deleted.
	var upserts []*Object
	ship := map[block.Hash]int{} // block hash → index in st.sent, -1 until lent; the blocks from does not reference
	for _, o := range v.held[len(origin):v.bornThroughLocked(to.txg)] {
		if !to.lists(o) {
			continue
		}
		if gone[o.Name] {
			gone[o.Name] = false
			continue
		}
		upserts = append(upserts, o)
		for _, p := range o.ptrs {
			if !p.zero {
				ship[p.hash] = -1
			}
		}
	}
	// A candidate from references is known to the receiver: probe the few
	// candidates with the origin's pointers rather than index them all.
	for _, o := range origin {
		if len(ship) == 0 {
			break
		}
		if !from.lists(o) {
			continue
		}
		for _, p := range o.ptrs {
			if !p.zero {
				delete(ship, p.hash)
			}
		}
	}
	st := &Stream{FromSnap: fromSnap, ToSnap: toSnap, Created: to.Created, codec: v.codec}
	for _, obj := range upserts {
		so := StreamObject{Name: obj.Name, Size: obj.Size, Ptrs: make([]StreamPtr, 0, len(obj.ptrs))}
		for _, p := range obj.ptrs {
			sp := StreamPtr{Zero: p.zero, LogLen: p.logLen, Payload: -1}
			if !p.zero {
				sp.Hash = p.hash
				if idx, unknown := ship[p.hash]; unknown {
					if idx < 0 {
						payload, err := v.lendPayloadLocked(p)
						if err != nil {
							return nil, fmt.Errorf("zvol: send %s: %w", obj.Name, err)
						}
						st.sent = append(st.sent, PreparedBlock{Hash: p.hash, Payload: payload,
							LogLen: p.logLen, Compressed: p.compressed, PhysHash: p.physHash})
						idx = len(st.sent) - 1
						ship[p.hash] = idx
					}
					sp.Payload = idx
				}
			}
			so.Ptrs = append(so.Ptrs, sp)
		}
		st.Upserts = append(st.Upserts, so)
	}
	for _, name := range dropped {
		if gone[name] {
			st.Deletes = append(st.Deletes, name)
		}
	}
	return st, nil
}

// Receive applies a stream, creating snapshot st.ToSnap on this volume.
// For an incremental stream the volume must already hold st.FromSnap.
//
// Receive is atomic with respect to errors: the full stream is verified
// — ancestry, payload indexes, per-block content checksums, object sizes,
// and hash-only references resolvable through the local DDT — before the
// replica is mutated, so a corrupted or truncated stream can never leave
// a half-applied ccVolume behind.
//
// The apply itself is journaled against crashes (see journal.go): an
// intent record opens before the first mutation, each staged upsert or
// delete appends its undo record, and releases + snapshot creation form
// one atomic commit that also clears the journal. An injected crash
// (SetReceiveCrashPoint, the torn-apply fault lane) returns ErrTorn with
// the journal open; Recover rolls the volume back to its exact
// pre-receive state. A volume with an open journal refuses further
// receives until recovered.
func (v *Volume) Receive(st *Stream) error {
	ps, err := hashStream(st)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadStream, err)
	}
	return v.receive(ps, false)
}

// receive is the one apply path, behind Receive and ReceivePrepared:
// verify, journal, stage, commit, always over a prepared stream. A raw
// stream (decoded off a wire, nothing about it trusted) was prepared by
// this receiver for itself — every shipped block hashed, which is what
// verification compares with the stream's pointers; its blocks' stored
// forms are left for writeBlockLocked to produce from ps.raw, after the
// DDT has been asked, once verification has passed. arrived says the
// stream came prepared by its sender, which only the accounting cares
// about.
func (v *Volume) receive(ps *PreparedStream, arrived bool) error {
	st := ps.Stream
	v.mu.Lock()
	defer v.mu.Unlock()
	// Consume the one-shot crash point whether or not verification
	// passes: the "crash" is armed for this receive attempt only.
	crashAt, armed := v.crashPoint, v.armed
	v.crashPoint, v.armed = 0, false
	if v.journal != nil {
		return ErrNeedsRecovery
	}
	if err := v.verifyStreamLocked(ps); err != nil {
		return err
	}
	// Intent record: from here until commit, a crash leaves the journal
	// open for Recover to roll back.
	j := &receiveJournal{fromSnap: st.FromSnap, toSnap: st.ToSnap}
	v.journal = j
	crashed := func() bool { return armed && j.steps >= crashAt }
	if crashed() {
		return ErrTorn
	}
	// Stage the apply. Verification guarantees nothing below can fail.
	// Upserts land before any release, so a hash-only pointer that
	// resolved during verification cannot watch its block vanish when
	// this same stream replaces or deletes the object that held it.
	var release []*Object
	for _, so := range st.Upserts {
		rec := undoRec{upsert: true, name: so.Name}
		obj := &Object{Name: so.Name, Size: so.Size, ptrs: make([]blockPtr, 0, len(so.Ptrs))}
		for _, sp := range so.Ptrs {
			var ptr blockPtr
			switch {
			case sp.Zero:
				ptr = blockPtr{zero: true, logLen: sp.LogLen}
				v.zeroBytes += int64(sp.LogLen)
				rec.zeros += int64(sp.LogLen)
			case sp.Payload >= 0:
				var data []byte // read only when the block has no stored form yet, which verification proved raw holds
				if sp.Payload < len(ps.raw) {
					data = ps.raw[sp.Payload]
				}
				ptr = v.writeBlockLocked(&ps.Blocks[sp.Payload], data)
			default:
				ptr, _ = v.refStoredLocked(sp.Hash, sp.LogLen) // verified resolvable
			}
			obj.ptrs = append(obj.ptrs, ptr)
			v.logicalWritten += int64(sp.LogLen)
			rec.logical += int64(sp.LogLen)
		}
		if old, ok := v.objects[so.Name]; ok {
			// Replace (idempotent receive): the old object leaves the live
			// table now and dies only at commit, after every upsert is in.
			release = append(release, old)
			rec.old = old
		}
		rec.staged = obj
		v.addObjectLocked(obj)
		j.undo = append(j.undo, rec)
		j.steps++
		if crashed() {
			return ErrTorn
		}
	}
	for _, name := range st.Deletes {
		if obj, ok := v.objects[name]; ok {
			v.setObjectLocked(name, nil)
			release = append(release, obj)
			j.undo = append(j.undo, undoRec{name: name, old: obj})
		}
		j.steps++
		if crashed() {
			return ErrTorn
		}
	}
	// Commit: releases, snapshot, journal clear — atomic (no crash
	// points; a real implementation orders this behind one journal
	// commit-mark write).
	for _, old := range release {
		v.retireLocked(old)
	}
	v.snapshotLocked(st.ToSnap, st.Created)
	v.journal = nil
	v.counters.Add("zvol.recv.streams", 1)
	v.counters.Add("zvol.recv.bytes", st.SizeBytes())
	if arrived {
		v.counters.Add("zvol.recv.prepared", 1)
	}
	return nil
}

// ApplySteps returns the number of staged apply steps Receive would run
// for st — the valid range of torn-apply crash offsets is [0, ApplySteps].
func (st *Stream) ApplySteps() int { return len(st.Upserts) + len(st.Deletes) }

// verifyStreamLocked checks a prepared stream end to end without touching
// the volume. Everything receive's apply phase relies on is proven here:
// ancestry and snapshot-name freshness, one prepared block per shipped
// payload, each with a stored form or the logical bytes to make one,
// payload indexes in range, shipped payloads matching their declared
// length and — by the hash their preparer computed, sender or this
// receiver alike — their pointer's content hash, object sizes consistent
// with their pointers, and every hash-only reference present in the
// local DDT.
func (v *Volume) verifyStreamLocked(ps *PreparedStream) error {
	st := ps.Stream
	if st.FromSnap != "" && v.snapByName[st.FromSnap] == nil {
		return fmt.Errorf("%w: %s", ErrNotAncestor, st.FromSnap)
	}
	if v.snapByName[st.ToSnap] != nil {
		return fmt.Errorf("%w: %s", ErrSnapExists, st.ToSnap)
	}
	if !v.cfg.Dedup {
		return fmt.Errorf("zvol: receive requires a dedup volume")
	}
	if n, _ := st.shipped(); len(ps.Blocks) != n {
		return fmt.Errorf("%w: prepared stream carries %d blocks, stream %d",
			ErrBadStream, len(ps.Blocks), n)
	}
	for _, so := range st.Upserts {
		var size int64
		for _, sp := range so.Ptrs {
			size += int64(sp.LogLen)
			switch {
			case sp.Zero:
			case sp.Payload >= 0:
				if sp.Payload >= len(ps.Blocks) {
					return fmt.Errorf("%w: %s payload index %d out of range",
						ErrBadStream, so.Name, sp.Payload)
				}
				if n := ps.Blocks[sp.Payload].LogLen; n != sp.LogLen {
					return fmt.Errorf("%w: %s block %d is %d bytes, pointer says %d",
						ErrBadStream, so.Name, sp.Payload, n, sp.LogLen)
				}
				if ps.Blocks[sp.Payload].Hash != block.Hash(sp.Hash) {
					return fmt.Errorf("%w: %s block %d checksum mismatch",
						ErrBadStream, so.Name, sp.Payload)
				}
				if ps.Blocks[sp.Payload].Payload == nil && sp.Payload >= len(ps.raw) {
					return fmt.Errorf("%w: %s block %d has neither a stored form nor its bytes",
						ErrBadStream, so.Name, sp.Payload)
				}
			default:
				if v.ddt.Lookup(sp.Hash) == nil {
					return fmt.Errorf("%w: %s references unknown block %x",
						ErrBadStream, so.Name, sp.Hash[:8])
				}
			}
		}
		if size != so.Size {
			return fmt.Errorf("%w: %s pointers cover %d bytes, object says %d",
				ErrBadStream, so.Name, size, so.Size)
		}
	}
	return nil
}
