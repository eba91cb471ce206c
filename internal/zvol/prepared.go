package zvol

import (
	"fmt"

	"repro/internal/block"
)

// PreparedStream is a send stream whose per-payload work — logical
// checksum, compression decision, stored-form bytes, physical checksum —
// has been done once, up front, so the stream can be received by many
// volumes without each receiver redoing it.
//
// This is the bulk-provisioning path behind registration fan-out: without
// it, propagating one image to N compute nodes costs N× sha256 + N× gzip
// over every shipped payload plus N private copies of the stored bytes —
// O(n²)-ish setup work that dominates a 10k-node cluster bring-up. A
// prepared stream pays the CPU once and lets every receiver alias the
// same immutable stored payload via store.AllocShared; per-receiver work
// collapses to DDT/object-table map updates.
//
// The resulting replicas are bit-identical to ones built by plain
// Receive: block pointers carry the same hashes, lengths, compression
// flags, physical checksums, and — because AllocShared uses Alloc's exact
// placement logic — the same disk addresses.
type PreparedStream struct {
	Stream *Stream
	Blocks []PreparedBlock // parallel to Stream.Blocks
}

// PreparedBlock is the precomputed stored form of one shipped payload.
type PreparedBlock struct {
	Hash       block.Hash // logical content hash (drives dedup)
	Payload    []byte     // stored form: compressed iff Compressed; aliased by receivers, never mutated
	LogLen     int32
	Compressed bool
	PhysHash   block.Hash // checksum of Payload (what a scrub verifies)
}

// Prepare hashes and (per the volume's codec and minimum-gain rule)
// compresses every shipped payload of st exactly once. The receiver
// volumes must share this volume's Config — in Squirrel they always do:
// the scVolume and every ccVolume are created from one cfg.Volume.
func (v *Volume) Prepare(st *Stream) *PreparedStream {
	ps := &PreparedStream{Stream: st, Blocks: make([]PreparedBlock, len(st.Blocks))}
	for i, data := range st.Blocks {
		pb := PreparedBlock{Hash: block.HashOf(data), LogLen: int32(len(data))}
		pb.Payload, pb.Compressed, pb.PhysHash = v.encode(data, pb.Hash)
		ps.Blocks[i] = pb
	}
	return ps
}

// ReceivePrepared applies a prepared stream. Semantics are identical to
// Receive(ps.Stream) — same verification guarantees, same journaling and
// crash behaviour, same resulting replica down to disk addresses — but
// shipped payloads are neither re-hashed nor re-compressed, and stored
// bytes are aliased (copy-on-write) rather than copied.
func (v *Volume) ReceivePrepared(ps *PreparedStream) error {
	if ps == nil || ps.Stream == nil {
		return fmt.Errorf("%w: nil prepared stream", ErrBadStream)
	}
	return v.receive(ps.Stream, ps)
}

// writeBlockPrepared stores one nonzero block from its prepared form and
// returns its pointer. Mirrors writeBlock exactly, minus the hash and
// compression work. Caller holds v.mu.
func (v *Volume) writeBlockPrepared(pb *PreparedBlock) blockPtr {
	if v.cfg.Dedup {
		if e := v.ddt.Lookup(pb.Hash); e != nil {
			v.ddt.AddRef(pb.Hash)
			return blockPtr{hash: pb.Hash, addr: e.Addr, physLen: e.PhysLen,
				logLen: pb.LogLen, compressed: e.Compressed, physHash: e.PhysHash}
		}
	}
	addr := v.store.AllocShared(pb.Payload)
	ptr := blockPtr{hash: pb.Hash, addr: addr, physLen: int32(len(pb.Payload)),
		logLen: pb.LogLen, compressed: pb.Compressed, physHash: pb.PhysHash}
	if v.cfg.Dedup {
		v.ddt.Reference(pb.Hash, addr, ptr.physLen, ptr.logLen, pb.Compressed, ptr.physHash)
	}
	return ptr
}
