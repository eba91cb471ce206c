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
// to prepare a stream for itself (Receive).
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

// Prepare returns st, which v.Send built, with every shipped payload in
// its stored form. A sent stream carries that form already — v's stored
// payloads, lent, each checked against its pointer's CRC32C as Send lent
// it, with the pointer's hash — so Prepare hands it out as it is: no
// hash, no DDT probe, no checksum, no codec. A stream any other way
// built (DecodeStream's, off a wire) carries no stored forms: prepared
// here it ships none, and a receiver refuses it with ErrBadStream unless
// it ships no block at all. Receive is how such a stream is applied.
//
// The receiver volumes must share the sender's Config — in Squirrel they
// always do: the scVolume and every ccVolume are created from one
// cfg.Volume.
func (v *Volume) Prepare(st *Stream) *PreparedStream {
	return &PreparedStream{Stream: st, Blocks: st.sent}
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
