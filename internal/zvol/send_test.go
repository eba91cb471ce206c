package zvol

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// pair builds a source volume with two snapshots and an empty replica.
func pair(t *testing.T) (*Volume, *Volume) {
	t.Helper()
	src, err := New(cfg(4096, "gzip6", true))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(cfg(4096, "gzip6", true))
	if err != nil {
		t.Fatal(err)
	}
	return src, dst
}

func TestFullSendReceive(t *testing.T) {
	src, dst := pair(t)
	a := mkData(20, 90*1024)
	b := mkData(21, 45*1024)
	src.WriteObject("a", bytes.NewReader(a))
	src.WriteObject("b", bytes.NewReader(b))
	src.Snapshot("s1", day(0))

	st, err := src.Send("", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Receive(st); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"a": a, "b": b} {
		got, err := dst.ReadObject(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("replica %s mismatch: %v", name, err)
		}
	}
	if dst.LatestSnapshot().Name != "s1" {
		t.Fatal("receive must create the snapshot")
	}
}

func TestIncrementalSendShipsOnlyNewBlocks(t *testing.T) {
	src, dst := pair(t)
	shared := mkData(22, 200*1024)
	src.WriteObject("base", bytes.NewReader(shared))
	src.Snapshot("s1", day(0))
	full, _ := src.Send("", "s1")
	if err := dst.Receive(full); err != nil {
		t.Fatal(err)
	}

	// New object that shares all but one block with "base" — like a new
	// VMI cache from the same distro.
	similar := append([]byte(nil), shared...)
	copy(similar[:4096], mkData(99, 4096)) // one new block
	src.WriteObject("cache2", bytes.NewReader(similar))
	src.Snapshot("s2", day(1))

	inc, err := src.Send("s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := inc.shipped(); n != 1 {
		t.Fatalf("incremental stream shipped %d blocks, want 1", n)
	}
	if inc.SizeBytes() >= full.SizeBytes() {
		t.Fatal("incremental must be smaller than full")
	}
	if err := dst.Receive(inc); err != nil {
		t.Fatal(err)
	}
	got, err := dst.ReadObject("cache2")
	if err != nil || !bytes.Equal(got, similar) {
		t.Fatalf("replica cache2 mismatch: %v", err)
	}
}

func TestSendReceiveDeletes(t *testing.T) {
	src, dst := pair(t)
	src.WriteObject("dead", bytes.NewReader(mkData(23, 30*1024)))
	src.Snapshot("s1", day(0))
	full, _ := src.Send("", "s1")
	dst.Receive(full)

	src.DeleteObject("dead")
	src.WriteObject("alive", bytes.NewReader(mkData(24, 30*1024)))
	src.Snapshot("s2", day(1))
	inc, _ := src.Send("s1", "s2")
	if len(inc.Deletes) != 1 || inc.Deletes[0] != "dead" {
		t.Fatalf("deletes %v", inc.Deletes)
	}
	if err := dst.Receive(inc); err != nil {
		t.Fatal(err)
	}
	if dst.HasObject("dead") {
		t.Fatal("deleted object survived on replica")
	}
	if !dst.HasObject("alive") {
		t.Fatal("new object missing on replica")
	}
}

func TestReceiveWithoutAncestor(t *testing.T) {
	src, dst := pair(t)
	src.WriteObject("a", bytes.NewReader(mkData(25, 10*1024)))
	src.Snapshot("s1", day(0))
	src.WriteObject("b", bytes.NewReader(mkData(26, 10*1024)))
	src.Snapshot("s2", day(1))
	inc, _ := src.Send("s1", "s2")
	if err := dst.Receive(inc); !errors.Is(err, ErrNotAncestor) {
		t.Fatalf("want ErrNotAncestor, got %v", err)
	}
}

func TestSendUnknownSnapshots(t *testing.T) {
	src, _ := pair(t)
	if _, err := src.Send("", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	src.Snapshot("s1", day(0))
	if _, err := src.Send("ghost", "s1"); !errors.Is(err, ErrNotAncestor) {
		t.Fatalf("want ErrNotAncestor, got %v", err)
	}
}

func TestReceiveDuplicateSnapshot(t *testing.T) {
	src, dst := pair(t)
	src.WriteObject("a", bytes.NewReader(mkData(27, 10*1024)))
	src.Snapshot("s1", day(0))
	full, _ := src.Send("", "s1")
	if err := dst.Receive(full); err != nil {
		t.Fatal(err)
	}
	if err := dst.Receive(full); !errors.Is(err, ErrSnapExists) {
		t.Fatalf("want ErrSnapExists, got %v", err)
	}
}

func TestReplicaChainConvergesToSource(t *testing.T) {
	// Property: after N registration rounds propagated incrementally, the
	// replica serves byte-identical content for every object, and its
	// dedup stats match the source's.
	src, dst := pair(t)
	var lastSnap string
	contents := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := string(rune('a' + i))
		data := mkData(int64(30+i), 60*1024)
		contents[name] = data
		src.WriteObject(name, bytes.NewReader(data))
		snap := "s" + name
		src.Snapshot(snap, day(i))
		stm, err := src.Send(lastSnap, snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Receive(stm); err != nil {
			t.Fatal(err)
		}
		lastSnap = snap
	}
	for name, want := range contents {
		got, err := dst.ReadObject(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("replica diverged on %s: %v", name, err)
		}
	}
	ss, ds := src.Stats(), dst.Stats()
	if ss.UniqueBlocks != ds.UniqueBlocks || ss.LogicalBytes != ds.LogicalBytes {
		t.Fatalf("replica stats diverged: src %+v dst %+v", ss, ds)
	}
}

func TestStreamSizeAccounting(t *testing.T) {
	src, _ := pair(t)
	src.WriteObject("a", bytes.NewReader(mkData(40, 50*1024)))
	src.Snapshot("s1", day(0))
	st, _ := src.Send("", "s1")
	var payload int64 // the shipped blocks' logical bytes, as their pointers record them
	for _, pb := range st.sent {
		payload += int64(pb.LogLen)
	}
	if payload == 0 {
		t.Fatal("stream shipped no payloads")
	}
	if st.SizeBytes() <= payload {
		t.Fatal("stream size must include metadata overhead")
	}
}

// A stream's bytes are a function of the commit, not of the run: upserts
// go in birth order (they used to go in map order), so two volumes built
// the same way encode a full and an incremental stream to identical
// bytes, and two replicas fed from them place every block at the same
// disk address.
func TestSendIsDeterministic(t *testing.T) {
	build := func() (*Volume, *Volume, [2][]byte) {
		src, dst := pair(t)
		write := func(from, to int) {
			for i := from; i < to; i++ {
				if _, err := src.WriteObject(fmt.Sprintf("img%02d", i), bytes.NewReader(mkData(int64(100+i), 20*1024))); err != nil {
					t.Fatal(err)
				}
			}
		}
		write(0, 12)
		src.Snapshot("s1", day(0))
		src.DeleteObject("img03")
		src.DeleteObject("img07")
		write(12, 24)
		src.Snapshot("s2", day(1))
		var wire [2][]byte
		for i, from := range []string{"", "s1"} {
			st, err := src.Send(from, "s"+fmt.Sprint(i+1))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := st.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if err := dst.Receive(st); err != nil {
				t.Fatal(err)
			}
			wire[i] = buf.Bytes()
		}
		return src, dst, wire
	}
	_, dstA, wireA := build()
	_, dstB, wireB := build()
	for i, kind := range []string{"full", "incremental"} {
		if !bytes.Equal(wireA[i], wireB[i]) {
			t.Fatalf("the %s stream of one commit encoded to different bytes on two runs", kind)
		}
	}
	for _, name := range dstA.Objects() {
		a, errA := dstA.BlockInfos(name)
		b, errB := dstB.BlockInfos(name)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("replicas of one history placed %s differently (%v, %v)", name, errA, errB)
		}
	}
	assertIdenticalReplicas(t, dstA, dstB)
}
