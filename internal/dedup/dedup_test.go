package dedup

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/block"
)

func h(b byte) block.Hash {
	return block.HashOf([]byte{b})
}

func TestReferenceNewAndDup(t *testing.T) {
	tab := NewTable()
	e, dup := tab.Reference(h(1), 100, 10, 20, true, block.Hash{})
	if dup {
		t.Fatal("first reference must not be a dup")
	}
	if e.Refs != 1 || e.Addr != 100 {
		t.Fatalf("bad entry %+v", e)
	}
	e2, dup := tab.Reference(h(1), 999, 99, 99, false, block.Hash{})
	if !dup {
		t.Fatal("second reference must dedup")
	}
	if e2 != e || e2.Refs != 2 || e2.Addr != 100 {
		t.Fatalf("dup must return original entry, got %+v", e2)
	}
}

func TestReleaseLifecycle(t *testing.T) {
	tab := NewTable()
	tab.Reference(h(1), 0, 8, 8, false, block.Hash{})
	tab.Reference(h(1), 0, 8, 8, false, block.Hash{})
	if _, freed, err := tab.Release(h(1)); err != nil || freed {
		t.Fatalf("first release: freed=%v err=%v", freed, err)
	}
	e, freed, err := tab.Release(h(1))
	if err != nil || !freed {
		t.Fatalf("last release must free: freed=%v err=%v", freed, err)
	}
	if e.Hash != h(1) {
		t.Fatal("freed entry mismatch")
	}
	if tab.Len() != 0 {
		t.Fatal("table should be empty")
	}
	if _, _, err := tab.Release(h(1)); err == nil {
		t.Fatal("releasing unknown hash must error")
	}
}

func TestAddRefUnknown(t *testing.T) {
	tab := NewTable()
	if err := tab.AddRef(h(7)); err == nil {
		t.Fatal("AddRef on unknown hash must error")
	}
	tab.Reference(h(7), 0, 1, 1, false, block.Hash{})
	if err := tab.AddRef(h(7)); err != nil {
		t.Fatal(err)
	}
	if tab.Lookup(h(7)).Refs != 2 {
		t.Fatal("AddRef did not bump")
	}
}

func TestStatsAccounting(t *testing.T) {
	tab := NewTable()
	tab.Reference(h(1), 0, 10, 64, true, block.Hash{})  // unique
	tab.Reference(h(2), 10, 20, 64, true, block.Hash{}) // unique
	tab.Reference(h(1), 0, 10, 64, true, block.Hash{})  // dup
	s := tab.Stats()
	if s.Entries != 2 || s.References != 3 {
		t.Fatalf("entries=%d refs=%d", s.Entries, s.References)
	}
	if s.PhysicalBytes != 30 {
		t.Fatalf("physical=%d want 30", s.PhysicalBytes)
	}
	if s.LogicalBytes != 64*3 {
		t.Fatalf("logical=%d want 192", s.LogicalBytes)
	}
	if s.DiskBytes != 2*DiskBytesPerEntry || s.MemBytes != 2*MemBytesPerEntry {
		t.Fatalf("footprints wrong: %+v", s)
	}
	if got := s.DedupRatio(); got != 1.5 {
		t.Fatalf("dedup ratio %v want 1.5", got)
	}
}

func TestDedupRatioEmpty(t *testing.T) {
	if r := (Stats{}).DedupRatio(); r != 1 {
		t.Fatalf("empty ratio %v want 1", r)
	}
}

func TestRefcountInvariantQuick(t *testing.T) {
	// Property: after any sequence of references and releases over a small
	// hash universe, live entries == hashes with more refs than releases,
	// and total references match.
	f := func(ops []byte) bool {
		tab := NewTable()
		refs := map[byte]int64{}
		for _, op := range ops {
			key := op & 0x0F
			if op&0x10 == 0 || refs[key] == 0 {
				tab.Reference(h(key), uint64(key), 4, 8, false, block.Hash{})
				refs[key]++
			} else {
				if _, _, err := tab.Release(h(key)); err != nil {
					return false
				}
				refs[key]--
			}
		}
		var live, total int64
		for _, r := range refs {
			if r > 0 {
				live++
				total += r
			}
		}
		s := tab.Stats()
		return s.Entries == live && s.References == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReferences(t *testing.T) {
	tab := NewTable()
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				tab.Reference(h(byte(rng.Intn(32))), 0, 4, 8, false, block.Hash{})
			}
		}(int64(g))
	}
	wg.Wait()
	s := tab.Stats()
	if s.References != goroutines*perG {
		t.Fatalf("references %d want %d", s.References, goroutines*perG)
	}
	if s.Entries > 32 {
		t.Fatalf("entries %d exceed universe", s.Entries)
	}
}

func TestForEach(t *testing.T) {
	tab := NewTable()
	for i := byte(0); i < 10; i++ {
		tab.Reference(h(i), uint64(i), 4, 8, false, block.Hash{})
	}
	n := 0
	tab.ForEach(func(e *Entry) { n++ })
	if n != 10 {
		t.Fatalf("visited %d want 10", n)
	}
}

func BenchmarkReferenceMiss(b *testing.B) {
	tab := NewTable()
	var buf [8]byte
	for i := 0; i < b.N; i++ {
		buf[0], buf[1], buf[2], buf[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		tab.Reference(block.HashOf(buf[:]), uint64(i), 4, 8, false, block.Hash{})
	}
}

func BenchmarkReferenceHit(b *testing.B) {
	tab := NewTable()
	hh := h(1)
	tab.Reference(hh, 0, 4, 8, false, block.Hash{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Reference(hh, 0, 4, 8, false, block.Hash{})
	}
}

// statsByWalk is Stats the way it was computed before the running totals:
// one pass over every entry. It is the oracle for Stats.
func statsByWalk(t *Table) Stats {
	var s Stats
	t.ForEach(func(e *Entry) {
		s.Entries++
		s.References += e.Refs
		s.PhysicalBytes += int64(e.PhysLen)
		s.LogicalBytes += int64(e.LogLen) * e.Refs
	})
	s.DiskBytes = s.Entries * DiskBytesPerEntry
	s.MemBytes = s.Entries * MemBytesPerEntry
	return s
}

// A seeded random Reference/AddRef/Release schedule over a small hash
// space — so entries are released to zero and the same hash re-inserted
// with different lengths — keeps the running totals equal to the walk
// after every operation, failed ones included, and ends at zero.
func TestStatsMatchWalk(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable()
		refs := map[byte]int{}
		check := func(op string, step int) {
			t.Helper()
			if got, want := tab.Stats(), statsByWalk(tab); got != want {
				t.Fatalf("seed %d step %d (%s): Stats %+v, walk %+v", seed, step, op, got, want)
			}
		}
		reinserted := 0
		for step := 0; step < 4000; step++ {
			k := byte(rng.Intn(24))
			switch op := rng.Intn(10); {
			case op < 4:
				// A hash that went to zero comes back with fresh lengths: the
				// totals must have forgotten the old ones.
				if n, seen := refs[k]; seen && n == 0 {
					reinserted++
				}
				tab.Reference(h(k), uint64(step), int32(1+rng.Intn(4096)), int32(1+rng.Intn(8192)), rng.Intn(2) == 0, block.Hash{})
				refs[k]++
				check("reference", step)
			case op < 6:
				if err := tab.AddRef(h(k)); (err == nil) != (refs[k] > 0) {
					t.Fatalf("seed %d step %d: AddRef err %v with %d refs", seed, step, err, refs[k])
				} else if err == nil {
					refs[k]++
				}
				check("addref", step)
			default:
				_, freed, err := tab.Release(h(k))
				if (err == nil) != (refs[k] > 0) {
					t.Fatalf("seed %d step %d: Release err %v with %d refs", seed, step, err, refs[k])
				}
				if err == nil {
					refs[k]--
					if freed != (refs[k] == 0) {
						t.Fatalf("seed %d step %d: freed=%v with %d refs left", seed, step, freed, refs[k])
					}
				}
				check("release", step)
			}
		}
		if reinserted == 0 {
			t.Fatalf("seed %d: schedule never re-inserted a released hash", seed)
		}
		for k, n := range refs {
			for ; n > 0; n-- {
				if _, _, err := tab.Release(h(k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := tab.Stats(); got != (Stats{}) {
			t.Fatalf("seed %d: teardown left totals behind: %+v", seed, got)
		}
	}
}
