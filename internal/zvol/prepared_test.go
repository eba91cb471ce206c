package zvol

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/compress"
)

// prepPair builds a source volume with several objects (dedup'd shared
// content, compressible and random runs, holes), snapshots it, and
// returns the source plus the full stream for s1.
func prepPair(t *testing.T) (*Volume, *Stream) {
	t.Helper()
	src, _ := pair(t)
	if _, err := src.WriteObject("base", bytes.NewReader(mkData(7, 96*1024))); err != nil {
		t.Fatal(err)
	}
	// Same content under another name: dedup inside the stream.
	if _, err := src.WriteObject("clone", bytes.NewReader(mkData(7, 96*1024))); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteObject("other", bytes.NewReader(mkData(11, 64*1024))); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Snapshot("s1", day(0)); err != nil {
		t.Fatal(err)
	}
	st, err := src.Send("", "s1")
	if err != nil {
		t.Fatal(err)
	}
	return src, st
}

// assertIdenticalReplicas compares two volumes down to block-pointer
// level: object tables, every pointer field including disk addresses,
// materialized bytes, volume stats, and a clean scrub on both.
func assertIdenticalReplicas(t *testing.T, a, b *Volume) {
	t.Helper()
	if got, want := b.Objects(), a.Objects(); !reflect.DeepEqual(got, want) {
		t.Fatalf("object sets differ: %v vs %v", got, want)
	}
	a.mu.RLock()
	b.mu.RLock()
	for name, ao := range a.objects {
		bo := b.objects[name]
		if bo == nil || !reflect.DeepEqual(ao.ptrs, bo.ptrs) {
			a.mu.RUnlock()
			b.mu.RUnlock()
			t.Fatalf("block pointers differ for %s:\n  receive:  %+v\n  prepared: %+v", name, ao, bo)
		}
	}
	a.mu.RUnlock()
	b.mu.RUnlock()
	for _, name := range a.Objects() {
		da, err := a.ReadObject(name)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.ReadObject(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("materialized bytes differ for %s", name)
		}
	}
	if sa, sb := a.Stats(), b.Stats(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("stats differ:\n  receive:  %+v\n  prepared: %+v", sa, sb)
	}
	ssa, ssb := a.StoreStats(), b.StoreStats()
	// The prepared receiver aliases stored payloads, and a torn+recovered
	// attempt leaves extra alloc/free history; occupancy, span, and the
	// per-pointer addresses compared above must still match exactly.
	ssa.Shared, ssb.Shared = 0, 0
	ssa.Allocs, ssb.Allocs = 0, 0
	ssa.Frees, ssb.Frees = 0, 0
	if !reflect.DeepEqual(ssa, ssb) {
		t.Fatalf("store stats differ:\n  receive:  %+v\n  prepared: %+v", ssa, ssb)
	}
	if rep := b.Scrub(); !rep.Clean() {
		t.Fatalf("prepared replica failed scrub: %+v", rep)
	}
}

func TestReceivePreparedMatchesReceive(t *testing.T) {
	src, st := prepPair(t)
	ps := src.Prepare(st)

	plain, _ := pair(t)
	prepped, _ := pair(t)
	if err := plain.Receive(st); err != nil {
		t.Fatal(err)
	}
	if err := prepped.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
	assertIdenticalReplicas(t, plain, prepped)
	if prepped.StoreStats().Shared == 0 {
		t.Fatal("prepared receive did not alias any stored payloads")
	}

	// Incremental stream on top: both paths again.
	if _, err := src.WriteObject("delta", bytes.NewReader(mkData(23, 48*1024))); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Snapshot("s2", day(1)); err != nil {
		t.Fatal(err)
	}
	inc, err := src.Send("s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	pinc := src.Prepare(inc)
	if err := plain.Receive(inc); err != nil {
		t.Fatal(err)
	}
	if err := prepped.ReceivePrepared(pinc); err != nil {
		t.Fatal(err)
	}
	assertIdenticalReplicas(t, plain, prepped)
}

// Two receivers of the same prepared stream alias the same stored bytes;
// rotting one replica must copy-on-write and leave the other intact.
func TestReceivePreparedCopyOnWrite(t *testing.T) {
	src, st := prepPair(t)
	ps := src.Prepare(st)
	a, b := pair(t)
	if err := a.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
	if err := b.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
	if err := a.CorruptStoredBlock("base", 0, 0, 0xFF); err != nil {
		t.Fatal(err)
	}
	if rep := a.Scrub(); rep.Clean() {
		t.Fatal("corruption on a vanished")
	}
	if rep := b.Scrub(); !rep.Clean() {
		t.Fatalf("corruption on a leaked into b via the shared payload: %+v", rep)
	}
	want, err := src.ReadObject("base")
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadObject("base")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("b's content changed after a was corrupted")
	}
}

func TestReceivePreparedVerification(t *testing.T) {
	src, st := prepPair(t)
	ps := src.Prepare(st)
	dst, _ := pair(t)

	short := &PreparedStream{Stream: st, Blocks: ps.Blocks[:len(ps.Blocks)-1]}
	if err := dst.ReceivePrepared(short); !errors.Is(err, ErrBadStream) {
		t.Fatalf("block-count mismatch: %v", err)
	}
	bad := &PreparedStream{Stream: st, Blocks: append([]PreparedBlock(nil), ps.Blocks...)}
	bad.Blocks[0].Hash[0] ^= 0xFF
	if err := dst.ReceivePrepared(bad); !errors.Is(err, ErrBadStream) {
		t.Fatalf("hash mismatch: %v", err)
	}
	if err := dst.ReceivePrepared(nil); !errors.Is(err, ErrBadStream) {
		t.Fatalf("nil prepared stream: %v", err)
	}
	if len(dst.Objects()) != 0 || len(dst.Snapshots()) != 0 {
		t.Fatal("failed prepared receives left state behind")
	}
	if err := dst.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
}

// The torn-apply crash lane works identically through the prepared path:
// an armed crash point tears the apply, Recover rolls back to the exact
// pre-receive state, and the same prepared stream then applies cleanly.
func TestReceivePreparedTornApplyRecovers(t *testing.T) {
	src, st := prepPair(t)
	ps := src.Prepare(st)
	dst, _ := pair(t)
	before := snapshotState(t, dst)
	dst.SetReceiveCrashPoint(1)
	if err := dst.ReceivePrepared(ps); !errors.Is(err, ErrTorn) {
		t.Fatalf("armed crash point: %v", err)
	}
	if !dst.NeedsRecovery() {
		t.Fatal("torn receive left no open journal")
	}
	dst.Recover()
	if !sameState(before, snapshotState(t, dst)) {
		t.Fatal("recovery did not restore the pre-receive state")
	}
	if err := dst.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
	plain, _ := pair(t)
	if err := plain.Receive(st); err != nil {
		t.Fatal(err)
	}
	assertIdenticalReplicas(t, plain, dst)
}

// compressCounter is gzip6 under another name that counts Compress calls
// — a test-side meter for how often a block is encoded, so production
// needs no counter for it.
type compressCounter struct {
	compress.Codec
	calls atomic.Int64
}

func (c *compressCounter) Name() string { return "gzip6-compress-counted" }

func (c *compressCounter) Compress(src []byte) []byte {
	c.calls.Add(1)
	return c.Codec.Compress(src)
}

// countedCompress registers the counting codec on first use (the
// registry refuses duplicates, and -count reruns tests in one process).
var countedCompress = sync.OnceValue(func() *compressCounter {
	c := &compressCounter{Codec: compress.MustGet("gzip6")}
	compress.Register(c)
	return c
})

// countedPair is prepPair on the counting codec, plus the codec.
func countedPair(t *testing.T) (*compressCounter, *Volume, *Stream) {
	t.Helper()
	codec := countedCompress()
	src, err := New(cfg(4096, codec.Name(), true))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		name string
		seed int64
	}{{"base", 7}, {"clone", 7}, {"other", 11}} {
		if _, err := src.WriteObject(o.name, bytes.NewReader(mkData(o.seed, 96*1024))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Snapshot("s1", day(0)); err != nil {
		t.Fatal(err)
	}
	st, err := src.Send("", "s1")
	if err != nil {
		t.Fatal(err)
	}
	return codec, src, st
}

func TestPrepareCompressesNothingTheSenderStores(t *testing.T) {
	// Every block of a stream the volume sent itself is in its DDT and
	// its store: Send lends those payloads out, Prepare hands them on and
	// never calls the codec, and each unique block was compressed exactly
	// once, when it was written.
	codec, src, st := countedPair(t)
	start := codec.calls.Load()
	ps := src.Prepare(st)
	shipped, _ := st.shipped()
	if got := codec.calls.Load() - start; got != 0 {
		t.Fatalf("Prepare compressed %d of %d shipped blocks; the sender stores every one", got, shipped)
	}
	if got, want := src.StoreStats().Shared, int64(shipped); got != want || len(ps.Blocks) != shipped {
		t.Fatalf("sender lent %d payloads, the stream ships %d (%d prepared)", got, want, len(ps.Blocks))
	}
	src.mu.RLock()
	for i, pb := range ps.Blocks {
		e := src.ddt.Lookup(pb.Hash)
		stored, err := src.store.Read(e.Addr)
		if err != nil || len(stored) == 0 || &stored[0] != &pb.Payload[0] {
			t.Errorf("block %d: the prepared payload is not the sender's stored slice (%v)", i, err)
		}
		if pb.PhysHash != e.PhysHash || pb.Compressed != e.Compressed || pb.PhysHash != block.Checksum(pb.Payload) {
			t.Errorf("block %d: prepared form disagrees with the DDT entry", i)
		}
	}
	src.mu.RUnlock()

	// The replicas are still what a plain verifying Receive builds.
	plain, err := New(src.Config())
	if err != nil {
		t.Fatal(err)
	}
	prepped, err := New(src.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Receive(st); err != nil {
		t.Fatal(err)
	}
	before := codec.calls.Load()
	if err := prepped.ReceivePrepared(ps); err != nil {
		t.Fatal(err)
	}
	if got := codec.calls.Load() - before; got != 0 {
		t.Fatalf("ReceivePrepared compressed %d blocks", got)
	}
	assertIdenticalReplicas(t, plain, prepped)
}

func TestPrepareIsolatesRotBetweenSenderAndReplicas(t *testing.T) {
	// Sender and replicas hold one copy of each payload, each behind its
	// own copy-on-write slot: rot, and its repair, stay where they happen.
	_, src, st := countedPair(t)
	ps := src.Prepare(st)
	var replicas [2]*Volume
	for i := range replicas {
		v, err := New(src.Config())
		if err != nil {
			t.Fatal(err)
		}
		if err := v.ReceivePrepared(ps); err != nil {
			t.Fatal(err)
		}
		replicas[i] = v
	}
	want, err := src.ReadObject("base")
	if err != nil {
		t.Fatal(err)
	}
	intact := func(when string, vols ...*Volume) {
		t.Helper()
		for _, v := range vols {
			if rep := v.Scrub(); !rep.Clean() {
				t.Fatalf("%s: scrub found %+v", when, rep.Damaged)
			}
			if got, err := v.ReadObject("base"); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: base diverged (%v)", when, err)
			}
		}
	}
	firstStored := func(v *Volume) int {
		infos, err := v.BlockInfos("base")
		if err != nil {
			t.Fatal(err)
		}
		for i, bi := range infos {
			if !bi.Zero {
				return i
			}
		}
		t.Fatal("base has no stored block")
		return -1
	}
	idx := firstStored(src)
	bs := int(src.Config().BlockSize)
	repair := want[idx*bs : min((idx+1)*bs, len(want))]

	if err := src.CorruptStoredBlock("base", idx, 0, 0xFF); err != nil {
		t.Fatal(err)
	}
	if src.Scrub().Clean() {
		t.Fatal("rot on the sender vanished")
	}
	intact("sender rotted", replicas[:]...)
	if err := src.RepairBlock("base", idx, repair); err != nil {
		t.Fatal(err)
	}
	intact("sender repaired", src, replicas[0], replicas[1])

	if err := replicas[0].CorruptStoredBlock("base", idx, 1, 0x0F); err != nil {
		t.Fatal(err)
	}
	if replicas[0].Scrub().Clean() {
		t.Fatal("rot on the replica vanished")
	}
	intact("replica rotted", src, replicas[1])
	if err := replicas[0].RepairBlock("base", idx, repair); err != nil {
		t.Fatal(err)
	}
	intact("replica repaired", src, replicas[0], replicas[1])
}

func TestPrepareNeverShipsARottedPayload(t *testing.T) {
	firstStored := func(t *testing.T, v *Volume, name string) int {
		t.Helper()
		infos, err := v.BlockInfos(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, bi := range infos {
			if !bi.Zero {
				return i
			}
		}
		t.Fatalf("%s has no stored block", name)
		return -1
	}
	t.Run("rot before Send", func(t *testing.T) {
		// Send checks every payload it lends against its pointer's
		// CRC32C: a rotted block fails the stream, it is never shipped.
		_, src, _ := countedPair(t)
		if err := src.CorruptStoredBlock("other", firstStored(t, src, "other"), 0, 0xFF); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Snapshot("s2", day(1)); err != nil {
			t.Fatal(err)
		}
		for _, from := range []string{"", "s1"} {
			if _, err := src.Send(from, "s2"); from == "" && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("full send over a rotted block: %v", err)
			} else if from != "" && err != nil {
				t.Fatalf("incremental send ships nothing rotted, yet failed: %v", err)
			}
		}
	})
	t.Run("rot after Send", func(t *testing.T) {
		// The stream is cut while the sender is intact; one of its stored
		// payloads then rots. The sender's slot is copy-on-write since
		// Send lent it, so the rot lands on a private copy: the lent
		// bytes stay intact, Prepare compresses nothing, and every
		// replica reads the bytes that were written.
		codec, src, st := countedPair(t)
		want, err := src.ReadObject("other")
		if err != nil {
			t.Fatal(err)
		}
		lent := make([][]byte, len(st.sent))
		for i, pb := range st.sent {
			lent[i] = bytes.Clone(pb.Payload)
		}
		if err := src.CorruptStoredBlock("other", firstStored(t, src, "other"), 0, 0xFF); err != nil {
			t.Fatal(err)
		}
		if src.Scrub().Clean() {
			t.Fatal("rot on the sender vanished")
		}
		start := codec.calls.Load()
		ps := src.Prepare(st)
		if got := codec.calls.Load() - start; got != 0 {
			t.Fatalf("Prepare compressed %d blocks", got)
		}
		for i, pb := range ps.Blocks {
			if !bytes.Equal(pb.Payload, lent[i]) || block.Checksum(pb.Payload) != pb.PhysHash {
				t.Fatalf("prepared block %d: the sender's rot reached the lent payload", i)
			}
		}
		plain, err := New(src.Config())
		if err != nil {
			t.Fatal(err)
		}
		if err := plain.Receive(st); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			dst, err := New(src.Config())
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.ReceivePrepared(ps); err != nil {
				t.Fatal(err)
			}
			if got, err := dst.ReadObject("other"); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("replica %d does not read the written bytes (%v)", i, err)
			}
			assertIdenticalReplicas(t, plain, dst) // scrubs dst clean
		}
	})
}

func TestPrepareOfADecodedStreamIsRefused(t *testing.T) {
	// A stream decoded off a wire carries logical bytes, not its sender's
	// stored forms: Prepare ships none of them, a receiver refuses the
	// result with ErrBadStream and is left untouched, and Receive applies
	// the same stream.
	_, src, st := countedPair(t)
	var wire bytes.Buffer
	if _, err := st.Encode(&wire); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeStream(&wire)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(src.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ReceivePrepared(src.Prepare(decoded)); !errors.Is(err, ErrBadStream) {
		t.Fatalf("ReceivePrepared of a prepared decoded stream: %v, want ErrBadStream", err)
	}
	if objs := dst.Objects(); len(objs) != 0 {
		t.Fatalf("a refused stream left objects %v", objs)
	}
	if err := dst.Receive(decoded); err != nil {
		t.Fatal(err)
	}
	assertIdenticalReplicas(t, src, dst)
}
