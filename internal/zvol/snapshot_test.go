package zvol

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/block"
)

var t0 = time.Date(2014, 6, 23, 0, 0, 0, 0, time.UTC) // HPDC'14 day one

func day(n int) time.Time { return t0.Add(time.Duration(n) * 24 * time.Hour) }

func TestSnapshotPreservesContent(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "gzip6", true))
	data := mkData(10, 80*1024)
	v.WriteObject("a", bytes.NewReader(data))
	if _, err := v.Snapshot("s1", day(0)); err != nil {
		t.Fatal(err)
	}
	// Delete the live object; the snapshot must still serve it.
	if err := v.DeleteObject("a"); err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadObjectAt("s1", "a")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("snapshot lost content: %v", err)
	}
	if _, err := v.ReadObject("a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("live object should be gone")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "gzip6", true))
	v.WriteObject("a", bytes.NewReader(mkData(11, 40*1024)))
	v.Snapshot("s1", day(0))
	v.WriteObject("b", bytes.NewReader(mkData(12, 40*1024)))
	if _, err := v.ReadObjectAt("s1", "b"); !errors.Is(err, ErrNotFound) {
		t.Fatal("later object visible in earlier snapshot")
	}
}

func TestSnapshotDuplicateName(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", true))
	v.Snapshot("s", day(0))
	if _, err := v.Snapshot("s", day(1)); !errors.Is(err, ErrSnapExists) {
		t.Fatalf("want ErrSnapExists, got %v", err)
	}
}

func TestDeleteSnapshotFreesBlocks(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "gzip6", true))
	v.WriteObject("a", bytes.NewReader(mkData(13, 60*1024)))
	v.Snapshot("s1", day(0))
	v.DeleteObject("a")
	if v.Stats().DataBytes == 0 {
		t.Fatal("snapshot should pin blocks")
	}
	if err := v.DeleteSnapshot("s1"); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.DataBytes != 0 || st.UniqueBlocks != 0 {
		t.Fatalf("deleting last snapshot leaked: %+v", st)
	}
	if err := v.DeleteSnapshot("s1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("double delete should fail")
	}
}

func TestGarbageCollectWindow(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", true))
	for i := 0; i < 5; i++ {
		v.WriteObject(string(rune('a'+i)), bytes.NewReader(mkData(int64(i), 8*1024)))
		if _, err := v.Snapshot(string(rune('A'+i)), day(i)); err != nil {
			t.Fatal(err)
		}
	}
	// GC at day 10 with a 3-day window: snapshots A..D (days 0..3) are
	// outside the window [day7, day10]; E (day 4) is outside too but is
	// the latest and must be kept.
	destroyed := v.GarbageCollect(day(10), 3*24*time.Hour)
	want := map[string]bool{"A": true, "B": true, "C": true, "D": true}
	if len(destroyed) != 4 {
		t.Fatalf("destroyed %v", destroyed)
	}
	for _, n := range destroyed {
		if !want[n] {
			t.Fatalf("unexpectedly destroyed %s", n)
		}
	}
	snaps := v.Snapshots()
	if len(snaps) != 1 || snaps[0].Name != "E" {
		t.Fatalf("kept %v, want only E", snaps)
	}
}

func TestGarbageCollectKeepsRecent(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", true))
	v.Snapshot("old", day(0))
	v.Snapshot("new", day(9))
	destroyed := v.GarbageCollect(day(10), 7*24*time.Hour)
	if len(destroyed) != 1 || destroyed[0] != "old" {
		t.Fatalf("destroyed %v, want [old]", destroyed)
	}
}

func TestGarbageCollectEmpty(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", true))
	if d := v.GarbageCollect(day(0), time.Hour); d != nil {
		t.Fatalf("empty volume destroyed %v", d)
	}
}

func TestLatestSnapshot(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", true))
	if v.LatestSnapshot() != nil {
		t.Fatal("empty volume has no latest")
	}
	v.Snapshot("s1", day(0))
	v.Snapshot("s2", day(1))
	if got := v.LatestSnapshot(); got.Name != "s2" {
		t.Fatalf("latest %s want s2", got.Name)
	}
	if !v.HasSnapshot("s1") {
		t.Fatal("s1 not found")
	}
	if v.HasSnapshot("zz") {
		t.Fatal("missing snapshot found")
	}
}

func TestSnapshotObjectsListing(t *testing.T) {
	v, _ := New(cfg(block.Size4K, "null", true))
	v.WriteObject("b", bytes.NewReader([]byte{1}))
	v.WriteObject("a", bytes.NewReader([]byte{2}))
	s, _ := v.Snapshot("s", day(0))
	got := s.Objects()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("snapshot objects %v", got)
	}
}

func TestDedupRatioCountsObjectsNotSnapshots(t *testing.T) {
	// The dedup ratio is the paper's: nonzero block references of the
	// objects the volume holds over unique blocks. A snapshot holds the
	// same objects again, not more references — the ratio used to grow
	// with every snapshot taken.
	v, _ := New(cfg(block.Size4K, "gzip6", true))
	shared := mkData(21, 64*1024)
	v.WriteObject("a", bytes.NewReader(shared))
	v.WriteObject("b", bytes.NewReader(shared))
	v.WriteObject("c", bytes.NewReader(mkData(22, 32*1024)))
	before := v.Stats()
	if before.DedupRatio <= 1 {
		t.Fatalf("fixture does not dedup: %+v", before)
	}
	for i := 0; i < 3; i++ {
		if _, err := v.Snapshot(fmt.Sprintf("s%d", i), day(i)); err != nil {
			t.Fatal(err)
		}
	}
	after := v.Stats()
	if after.References != before.References || after.DedupRatio != before.DedupRatio ||
		after.UniqueBlocks != before.UniqueBlocks || after.DataBytes != before.DataBytes {
		t.Fatalf("snapshots moved the block accounting:\n  before %+v\n  after  %+v", before, after)
	}
	// What a snapshot does cost is its own copy of the pointer metadata.
	if want := 4 * before.MetaBytes; after.MetaBytes != want {
		t.Fatalf("meta bytes %d after three snapshots, want %d", after.MetaBytes, want)
	}
	// A deleted object the snapshots still list keeps its references.
	v.DeleteObject("c")
	if got := v.Stats(); got.References != before.References {
		t.Fatalf("references %d after deleting a snapshotted object, want %d", got.References, before.References)
	}
}

func TestSnapshotPinsBlocksWithoutDedup(t *testing.T) {
	// Without a DDT every pointer owns its block, and deleting the live
	// object used to free blocks a snapshot still listed ("store: read of
	// unallocated address"). A snapshot that lists the object keeps it held.
	v, _ := New(cfg(block.Size4K, "gzip6", false))
	data := mkData(23, 80*1024)
	v.WriteObject("a", bytes.NewReader(data))
	if _, err := v.Snapshot("s1", day(0)); err != nil {
		t.Fatal(err)
	}
	if err := v.DeleteObject("a"); err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadObjectAt("s1", "a")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("snapshot lost content: %v", err)
	}
	if err := v.DeleteSnapshot("s1"); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.DataBytes != 0 || st.UniqueBlocks != 0 {
		t.Fatalf("the last snapshot listing it left storage behind: %+v", st)
	}
}

// Taking and destroying a snapshot costs the same whatever the volume
// holds: allocations and bytes of the pair are equal on a volume of 10
// objects and one of 1000 (a snapshot used to copy the object table).
func TestSnapshotCostIndependentOfHistory(t *testing.T) {
	cost := func(objects int) (allocs float64, bytesPerRun uint64) {
		v, _ := New(cfg(block.Size4K, "null", true))
		for i := 0; i < objects; i++ {
			if _, err := v.WriteObject(fmt.Sprintf("obj%04d", i), bytes.NewReader([]byte{byte(i), 1})); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 { // history: a snapshot per two objects, half of them dead but listed
				v.Snapshot(fmt.Sprintf("base%04d", i), day(0))
				v.DeleteObject(fmt.Sprintf("obj%04d", i))
			}
		}
		pair := func() {
			if _, err := v.Snapshot("s", day(1)); err != nil {
				t.Fatal(err)
			}
			if err := v.DeleteSnapshot("s"); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(100, pair)
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			pair()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := cost(10)
	largeAllocs, largeBytes := cost(1000)
	if smallAllocs != largeAllocs || smallBytes != largeBytes {
		t.Fatalf("snapshot+destroy costs %v allocs / %d B on 10 objects, %v allocs / %d B on 1000",
			smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
	t.Logf("snapshot+destroy: %v allocs, %d B", smallAllocs, smallBytes)
}
