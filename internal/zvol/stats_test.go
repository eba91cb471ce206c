package zvol

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/dedup"
)

// statsByWalk is Stats the way it was computed before the running totals:
// a walk over every live object, every object of every snapshot and the
// whole DDT. It is the oracle Stats is checked against. Without dedup
// there is no table to walk, so data and block counts come from the
// nonzero pointers of the distinct held objects, each of which owns its
// block.
func statsByWalk(v *Volume) Stats {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var st Stats
	st.Objects = int64(len(v.objects))
	st.Snapshots = int64(len(v.snaps))
	st.ZeroBytes = v.zeroBytes

	var nptrs int64
	for _, o := range v.objects {
		st.LogicalBytes += o.Size
		nptrs += int64(len(o.ptrs))
	}
	for _, s := range v.snaps {
		for _, o := range v.held {
			if s.lists(o) {
				nptrs += int64(len(o.ptrs))
			}
		}
	}
	st.MetaBytes = nptrs * bytesPerBlockPtr

	if v.cfg.Dedup {
		var ds dedup.Stats
		v.ddt.ForEach(func(e *dedup.Entry) {
			ds.Entries++
			ds.References += e.Refs
			ds.PhysicalBytes += int64(e.PhysLen)
		})
		st.DataBytes = ds.PhysicalBytes
		st.DDTDiskBytes = ds.Entries * dedup.DiskBytesPerEntry
		st.DDTMemBytes = ds.Entries * dedup.MemBytesPerEntry
		st.UniqueBlocks = ds.Entries
		st.References = ds.References
		st.DedupRatio = ds.DedupRatio()
	} else {
		for _, o := range v.held {
			for _, p := range o.ptrs {
				if !p.zero {
					st.DataBytes += int64(p.physLen)
					st.UniqueBlocks++
				}
			}
		}
		st.References = st.UniqueBlocks
		st.DedupRatio = 1
	}
	st.DiskBytes = st.DataBytes + st.DDTDiskBytes + st.MetaBytes
	return st
}

// checkStats fails the test unless every field of Stats equals the walk.
func checkStats(t *testing.T, v *Volume, when string) {
	t.Helper()
	if got, want := v.Stats(), statsByWalk(v); got != want {
		t.Fatalf("%s: Stats drifted from the walk:\n got  %+v\n walk %+v", when, got, want)
	}
}

// checkEmptied asserts a torn-down volume has every running total at
// exactly zero (ZeroBytes is a lifetime counter and is excluded).
func checkEmptied(t *testing.T, v *Volume) {
	t.Helper()
	checkStats(t, v, "teardown")
	st := v.Stats()
	st.ZeroBytes = 0
	if want := (Stats{DedupRatio: 1}); st != want {
		t.Fatalf("teardown left totals behind: %+v", st)
	}
	if v.liveBytes != 0 || v.livePtrs != 0 || v.snapPtrs != 0 {
		t.Fatalf("teardown left live %d B / %d ptrs, snapshot %d ptrs", v.liveBytes, v.livePtrs, v.snapPtrs)
	}
	if ss := v.StoreStats(); ss.Blocks != 0 || ss.UsedBytes != 0 {
		t.Fatalf("teardown left the store occupied: %+v", ss)
	}
}

// A torn receive leaves staged objects on the live table and their blocks
// in the DDT; Stats must match the walk in that state, after the rollback,
// and after the clean re-apply — at every crash point, on both receive
// paths.
func TestStatsMatchWalkAcrossTornReceive(t *testing.T) {
	for _, prepared := range []bool{false, true} {
		dst, inc := tornFixture(t)
		receive := func() error { return dst.Receive(inc) }
		if prepared {
			src, _ := pair(t)
			ps := src.Prepare(inc)
			receive = func() error { return dst.ReceivePrepared(ps) }
		}
		for off := 0; off <= inc.ApplySteps(); off++ {
			dst.SetReceiveCrashPoint(off)
			if err := receive(); !errors.Is(err, ErrTorn) {
				t.Fatalf("offset %d: receive returned %v, want ErrTorn", off, err)
			}
			checkStats(t, dst, "torn")
			dst.Recover()
			checkStats(t, dst, "recovered")
		}
		if err := receive(); err != nil {
			t.Fatal(err)
		}
		checkStats(t, dst, "re-applied")
	}
}

// A full stream applied to a replica that already holds the objects
// replaces each of them in place (the idempotent re-apply SyncNode relies
// on); then a middle snapshot goes, then GarbageCollect takes the rest
// but the latest, then everything — the totals follow the walk throughout
// and end at zero.
func TestStatsMatchWalkAcrossReplaceAndSnapshotRemoval(t *testing.T) {
	src, dst := pair(t)
	for i, name := range []string{"a", "b", "c"} {
		if _, err := src.WriteObject(name, bytes.NewReader(mkData(int64(40+i), 40*1024+i*5000))); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Snapshot("s"+name, day(i)); err != nil {
			t.Fatal(err)
		}
		st, err := src.Send("", "s"+name)
		if err != nil {
			t.Fatal(err)
		}
		// Every round after the first re-sends objects dst already holds.
		if err := dst.Receive(st); err != nil {
			t.Fatal(err)
		}
		checkStats(t, dst, "replace-in-place receive "+name)
		checkStats(t, src, "source after send "+name)
	}
	if got := dst.Stats(); got.Objects != 3 || got.Snapshots != 3 {
		t.Fatalf("replica holds %+v, want 3 objects in 3 snapshots", got)
	}
	for _, v := range []*Volume{src, dst} {
		if err := v.DeleteSnapshot("sb"); err != nil {
			t.Fatal(err)
		}
		checkStats(t, v, "middle snapshot deleted")
		if err := v.DeleteObject("a"); err != nil {
			t.Fatal(err)
		}
		checkStats(t, v, "live object deleted")
		if got := v.GarbageCollect(day(30), 24*time.Hour); len(got) != 1 || got[0] != "sa" {
			t.Fatalf("GarbageCollect destroyed %v, want [sa]", got)
		}
		checkStats(t, v, "garbage collected")
		for _, name := range v.Objects() {
			if err := v.DeleteObject(name); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.DeleteSnapshot("sc"); err != nil {
			t.Fatal(err)
		}
		checkEmptied(t, v)
	}
}
