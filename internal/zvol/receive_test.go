package zvol

import (
	"bytes"
	"errors"
	"testing"
)

// snapshotState captures the observable replica state for atomicity
// checks: object names, object contents, and snapshot names.
func snapshotState(t *testing.T, v *Volume) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range v.Objects() {
		data, err := v.ReadObject(name)
		if err != nil {
			t.Fatal(err)
		}
		out["obj:"+name] = string(data)
	}
	for _, s := range v.Snapshots() {
		out["snap:"+s.Name] = ""
	}
	return out
}

func sameState(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// sendStream builds a one-object volume, snapshots it, and returns the
// full stream plus a primed empty destination.
func sendStream(t *testing.T) (*Stream, *Volume) {
	t.Helper()
	src, dst := pair(t)
	if _, err := src.WriteObject("img", bytes.NewReader(mkData(7, 64*1024))); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Snapshot("s1", day(0)); err != nil {
		t.Fatal(err)
	}
	st, err := src.Send("", "s1")
	if err != nil {
		t.Fatal(err)
	}
	return st, dst
}

func TestReceiveRejectsCorruptPayload(t *testing.T) {
	// In-memory corruption the wire CRC never sees, in both forms a
	// stream reaches Receive in: a logical block of the stream decoded
	// off the wire, and a stored payload the Send-built stream lends —
	// swapped for a damaged copy, since the lent slice is the sender's.
	sent, dst := sendStream(t)
	var wire bytes.Buffer
	if _, err := sent.Encode(&wire); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeStream(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Blocks) == 0 || len(sent.sent) == 0 {
		t.Fatal("stream shipped no payloads")
	}
	intact := sent.sent[0].Payload
	damaged := bytes.Clone(intact)
	damaged[0] ^= 0xFF
	for _, c := range []struct {
		form         string
		st           *Stream
		rot, restore func()
	}{
		{"decoded", decoded, func() { decoded.Blocks[0][0] ^= 0xFF }, func() { decoded.Blocks[0][0] ^= 0xFF }},
		{"sent", sent, func() { sent.sent[0].Payload = damaged }, func() { sent.sent[0].Payload = intact }},
	} {
		dst, err := New(dst.Config())
		if err != nil {
			t.Fatal(err)
		}
		before := snapshotState(t, dst)
		c.rot()
		if err := dst.Receive(c.st); !errors.Is(err, ErrBadStream) {
			t.Fatalf("%s: corrupt payload: %v", c.form, err)
		}
		if !sameState(before, snapshotState(t, dst)) {
			t.Fatalf("%s: failed receive mutated the replica", c.form)
		}
		// Un-corrupt and the very same stream applies cleanly.
		c.restore()
		if err := dst.Receive(c.st); err != nil {
			t.Fatalf("%s: %v", c.form, err)
		}
		if !dst.HasObject("img") {
			t.Fatalf("%s: repaired receive missing object", c.form)
		}
	}
}

func TestReceiveRejectsPayloadIndexOutOfRange(t *testing.T) {
	st, dst := sendStream(t)
	before := snapshotState(t, dst)
	n, _ := st.shipped()
	st.Upserts[0].Ptrs[0].Payload = n + 5
	if err := dst.Receive(st); !errors.Is(err, ErrBadStream) {
		t.Fatalf("bad index: %v", err)
	}
	if !sameState(before, snapshotState(t, dst)) {
		t.Fatal("failed receive mutated the replica")
	}
}

func TestReceiveRejectsSizeMismatch(t *testing.T) {
	st, dst := sendStream(t)
	st.Upserts[0].Size += 17
	if err := dst.Receive(st); !errors.Is(err, ErrBadStream) {
		t.Fatalf("size mismatch: %v", err)
	}
	if len(dst.Objects()) != 0 || len(dst.Snapshots()) != 0 {
		t.Fatal("failed receive left state behind")
	}
}

func TestReceiveRejectsLengthMismatch(t *testing.T) {
	st, dst := sendStream(t)
	st.Upserts[0].Ptrs[0].LogLen++
	if err := dst.Receive(st); !errors.Is(err, ErrBadStream) {
		t.Fatalf("length mismatch: %v", err)
	}
}

func TestReceiveRejectsUnknownHashReference(t *testing.T) {
	// An incremental stream whose hash-only references the replica cannot
	// resolve must be rejected without touching it.
	src, dst := pair(t)
	src.WriteObject("a", bytes.NewReader(mkData(1, 32*1024)))
	src.Snapshot("s1", day(0))
	src.WriteObject("b", bytes.NewReader(mkData(1, 32*1024))) // dedups against a
	src.Snapshot("s2", day(1))
	inc, err := src.Send("s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	// dst holds s1's *name* but not its blocks: fake the ancestor so the
	// ancestry check passes and the hash check is what trips.
	if _, err := dst.Snapshot("s1", day(0)); err != nil {
		t.Fatal(err)
	}
	before := snapshotState(t, dst)
	if err := dst.Receive(inc); !errors.Is(err, ErrBadStream) {
		t.Fatalf("unknown hash: %v", err)
	}
	if !sameState(before, snapshotState(t, dst)) {
		t.Fatal("failed receive mutated the replica")
	}
}

func TestWireCorruptionCaughtByChecksum(t *testing.T) {
	st, _ := sendStream(t)
	var buf bytes.Buffer
	if _, err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	// Flip one byte anywhere in the body: the trailing CRC must trip.
	bad := append([]byte(nil), wire...)
	bad[len(bad)/2] ^= 0x40
	if _, err := DecodeStream(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted wire decoded cleanly")
	}
	// Truncations at a spread of cut points must all fail to decode.
	for _, frac := range []int{1, 3, 10, 50, 99} {
		cut := wire[:len(wire)*frac/100]
		if _, err := DecodeStream(bytes.NewReader(cut)); err == nil {
			t.Fatalf("truncated wire (%d%%) decoded cleanly", frac)
		}
	}
	// And the intact wire round-trips.
	if _, err := DecodeStream(bytes.NewReader(wire)); err != nil {
		t.Fatal(err)
	}
}

func TestReceiveReplaceReleasesAfterUpserts(t *testing.T) {
	// A stream that simultaneously deletes the sole holder of a block and
	// upserts an object referencing that block by hash must apply: the
	// new references land before the release.
	src, dst := pair(t)
	data := mkData(9, 16*1024)
	src.WriteObject("old", bytes.NewReader(data))
	src.Snapshot("s1", day(0))
	full, err := src.Send("", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Receive(full); err != nil {
		t.Fatal(err)
	}
	// New snapshot: "old" deleted, "new" holds the same content (its
	// blocks dedup against old's, so the incremental ships hashes only).
	src.DeleteObject("old")
	src.WriteObject("new", bytes.NewReader(data))
	src.Snapshot("s2", day(1))
	inc, err := src.Send("s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := inc.shipped(); n != 0 {
		t.Fatalf("incremental shipped %d payloads, want hash-only", n)
	}
	if err := dst.Receive(inc); err != nil {
		t.Fatal(err)
	}
	got, err := dst.ReadObject("new")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("replaced object unreadable: %v", err)
	}
	if dst.HasObject("old") {
		t.Fatal("delete not applied")
	}
}

// tornFixture builds a dst replica holding snapshot s1 (objects a, b, c)
// and an incremental s1→s2 stream carrying two upserts (one dedup-heavy)
// and one delete — enough staged steps to probe every torn-apply offset.
func tornFixture(t *testing.T) (*Volume, *Stream) {
	t.Helper()
	src, dst := pair(t)
	for i, name := range []string{"a", "b", "c"} {
		if _, err := src.WriteObject(name, bytes.NewReader(mkData(int64(20+i), 48*1024))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Snapshot("s1", day(0)); err != nil {
		t.Fatal(err)
	}
	full, err := src.Send("", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Receive(full); err != nil {
		t.Fatal(err)
	}
	if err := src.DeleteObject("a"); err != nil {
		t.Fatal(err)
	}
	// d is fresh content; e shares b's bytes so its stream record is
	// hash-only and the torn apply exercises the dedup-reference path.
	if _, err := src.WriteObject("d", bytes.NewReader(mkData(77, 32*1024))); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteObject("e", bytes.NewReader(mkData(21, 48*1024))); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Snapshot("s2", day(1)); err != nil {
		t.Fatal(err)
	}
	inc, err := src.Send("s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	if inc.ApplySteps() < 3 {
		t.Fatalf("fixture too small: %d apply steps", inc.ApplySteps())
	}
	return dst, inc
}

// TestTornReceiveRecoversAtEveryOffset is the crash-consistency property
// test: a crash injected after ANY number of staged apply steps — from
// right after the intent record to everything-staged-but-uncommitted —
// must leave the dataset bit-identical to its pre-receive state after
// Recover, and the very same stream must then apply cleanly.
func TestTornReceiveRecoversAtEveryOffset(t *testing.T) {
	dst, inc := tornFixture(t)
	before := snapshotState(t, dst)
	beforeStats := dst.Stats()
	for off := 0; off <= inc.ApplySteps(); off++ {
		dst.SetReceiveCrashPoint(off)
		if err := dst.Receive(inc); !errors.Is(err, ErrTorn) {
			t.Fatalf("offset %d: receive returned %v, want ErrTorn", off, err)
		}
		if !dst.NeedsRecovery() {
			t.Fatalf("offset %d: torn apply left no open journal", off)
		}
		// A replica with an open journal refuses further receives until
		// recovered — a restart must not stack a new apply on torn state.
		if err := dst.Receive(inc); !errors.Is(err, ErrNeedsRecovery) {
			t.Fatalf("offset %d: receive on torn replica returned %v", off, err)
		}
		rep := dst.Recover()
		if !rep.RolledBack || rep.Snapshot != "s2" {
			t.Fatalf("offset %d: recover report %+v", off, rep)
		}
		if rep.UndoneUpserts+rep.UndoneDeletes > off {
			t.Fatalf("offset %d: undid %d steps, staged at most %d",
				off, rep.UndoneUpserts+rep.UndoneDeletes, off)
		}
		if dst.NeedsRecovery() {
			t.Fatalf("offset %d: journal still open after recover", off)
		}
		if !sameState(before, snapshotState(t, dst)) {
			t.Fatalf("offset %d: dataset not bit-identical after rollback", off)
		}
		if s := dst.Stats(); s != beforeStats {
			t.Fatalf("offset %d: accounting drifted: %+v != %+v", off, s, beforeStats)
		}
	}
	// Recover on a consistent replica is a no-op.
	if rep := dst.Recover(); rep.RolledBack {
		t.Fatalf("no-op recover rolled back: %+v", rep)
	}
	// After the last rollback the same stream applies cleanly end to end.
	if err := dst.Receive(inc); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d", "e"} {
		if _, err := dst.ReadObject(name); err != nil {
			t.Fatalf("post-recovery receive lost %s: %v", name, err)
		}
	}
	if dst.HasObject("a") {
		t.Fatal("post-recovery receive missed the delete")
	}
	if rep := dst.Scrub(); !rep.Clean() {
		t.Fatalf("replica dirty after torn/recover/receive cycle: %+v", rep)
	}
}

// TestTornReceiveCrashPointIsOneShot checks the injection arms exactly
// one receive: the next attempt after a torn apply + recover runs clean.
func TestTornReceiveCrashPointIsOneShot(t *testing.T) {
	dst, inc := tornFixture(t)
	dst.SetReceiveCrashPoint(0)
	if err := dst.Receive(inc); !errors.Is(err, ErrTorn) {
		t.Fatalf("armed receive returned %v", err)
	}
	dst.Recover()
	if err := dst.Receive(inc); err != nil {
		t.Fatalf("crash point fired twice: %v", err)
	}
}
