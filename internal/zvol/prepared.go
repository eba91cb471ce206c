package zvol

import (
	"bytes"
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
// collapses to DDT/object-table map updates. And "once" includes the
// sender: Send lends its stored payloads out as they are, with the
// hashes and checksums their block pointers hold, so a registration's
// only per-block codec work is the scVolume's one gzip per new block
// (see Prepare).
//
// A prepared stream is also the only thing a volume applies: Receive
// prepares a raw stream for itself (hashStream) and takes the same path.
// The replicas the two build are bit-identical: block pointers carry the
// same hashes, lengths, compression flags, physical checksums, and —
// because AllocShared uses Alloc's exact placement logic — the same disk
// addresses.
type PreparedStream struct {
	Stream *Stream
	Blocks []PreparedBlock // one per shipped block, in stream order

	// raw is each shipped block's logical bytes when a receiver prepared
	// the stream for itself: a block write encodes the stored form from
	// them. nil for a stream its sender prepared.
	raw [][]byte
}

// PreparedBlock is the precomputed stored form of one shipped payload.
// A receiver preparing a raw stream for itself fills in Hash and LogLen
// only: with Payload nil the block write encodes the stored form itself.
type PreparedBlock struct {
	Hash       block.Hash // logical content hash (drives dedup)
	Payload    []byte     // stored form: compressed iff Compressed; the sender's own stored slice when it holds one; aliased by receivers, never mutated
	LogLen     int32
	Compressed bool
	PhysHash   block.Hash // block.Checksum of Payload (what every read verifies)
}

// hashStream is the half of preparation every receive needs: one
// PreparedBlock per shipped payload carrying its content hash and length,
// no stored form yet, over the logical bytes the stream ships (decoded
// from a Send-built stream's stored payloads). It is all a receiver does
// to prepare a stream for itself (Receive), and where Prepare starts on a
// stream DecodeStream built.
func hashStream(st *Stream) (*PreparedStream, error) {
	ps := &PreparedStream{Stream: st, raw: st.Blocks}
	if st.sent != nil {
		err := st.eachBlock(func(data []byte) error {
			ps.raw = append(ps.raw, bytes.Clone(data)) // eachBlock reuses its buffer
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	ps.Blocks = make([]PreparedBlock, len(ps.raw))
	for i, data := range ps.raw {
		ps.Blocks[i] = PreparedBlock{Hash: block.HashOf(data), LogLen: int32(len(data))}
	}
	return ps, nil
}

// Prepare returns st with every shipped payload in its stored form.
//
// A stream Send built carries that form already — the sender's stored
// payloads, lent, each checked against its pointer's CRC32C as Send lent
// it, with the pointer's hash, so Prepare hands it out as it is: no
// hash, no DDT probe, no checksum, no codec.
//
// A stream DecodeStream built carries logical bytes. Each is hashed once
// — that digest is what a receiver's stream verification compares with
// the stream's pointer — and the DDT is then asked before the codec, as
// writeBlockLocked asks it: a block this volume already stores is not
// compressed a second time. Its stored payload is checked against the
// entry's PhysHash and lent out through store.Share, so the sender and
// all receivers hold one copy of the bytes, each behind its own
// copy-on-write slot. Only a block the volume does not hold, holds at
// another length, or holds rotted is encoded afresh (per the codec and
// minimum-gain rule) — a rotted payload is never shipped.
//
// The receiver volumes must share the sender's Config — in Squirrel they
// always do: the scVolume and every ccVolume are created from one
// cfg.Volume.
func (v *Volume) Prepare(st *Stream) *PreparedStream {
	if st.sent != nil {
		return &PreparedStream{Stream: st, Blocks: st.sent}
	}
	ps, _ := hashStream(st) // logical bytes as they are: nothing to decode, nothing to fail
	v.mu.RLock()
	defer v.mu.RUnlock()
	for i := range ps.Blocks {
		if pb := &ps.Blocks[i]; !v.lendStoredLocked(pb) {
			pb.Payload, pb.Compressed, pb.PhysHash = v.encode(ps.raw[i])
		}
	}
	return ps
}

// lendStoredLocked completes pb from this volume's own stored copy of
// the block, when it holds an intact one. Caller holds v.mu, which keeps
// the slot from being freed or rewritten between the check and the loan.
func (v *Volume) lendStoredLocked(pb *PreparedBlock) bool {
	e := v.ddt.Lookup(pb.Hash) // nil without dedup: the table stays empty
	if e == nil || e.LogLen != pb.LogLen {
		return false
	}
	payload, err := v.lendPayloadLocked(blockPtr{addr: e.Addr, physLen: e.PhysLen, physHash: e.PhysHash})
	if err != nil {
		return false
	}
	pb.Payload, pb.Compressed, pb.PhysHash = payload, e.Compressed, e.PhysHash
	return true
}

// ReceivePrepared applies a prepared stream. It is Receive(ps.Stream) —
// the same apply path, verification, journaling and crash behaviour, the
// same resulting replica down to disk addresses — entered with the
// preparation already done: shipped payloads are neither re-hashed nor
// re-compressed, and stored bytes are aliased (copy-on-write) rather than
// copied.
func (v *Volume) ReceivePrepared(ps *PreparedStream) error {
	if ps == nil || ps.Stream == nil {
		return fmt.Errorf("%w: nil prepared stream", ErrBadStream)
	}
	return v.receive(ps, true)
}
