package store

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocReadFree(t *testing.T) {
	s := New()
	a := s.Alloc([]byte("hello"))
	b := s.Alloc([]byte("world!"))
	if a == b {
		t.Fatal("addresses must be unique")
	}
	got, err := s.Read(a)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read a: %q %v", got, err)
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(a); err == nil {
		t.Fatal("read after free must fail")
	}
	if err := s.Free(a); err == nil {
		t.Fatal("double free must fail")
	}
	got, _ = s.Read(b)
	if string(got) != "world!" {
		t.Fatal("neighbour payload corrupted")
	}
}

func TestAllocCopies(t *testing.T) {
	s := New()
	buf := []byte("mutable")
	a := s.Alloc(buf)
	buf[0] = 'X'
	got, _ := s.Read(a)
	if string(got) != "mutable" {
		t.Fatal("store must copy payloads")
	}
}

func TestReuseFreedExtent(t *testing.T) {
	s := New()
	a := s.Alloc(make([]byte, 100))
	s.Alloc(make([]byte, 50))
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	c := s.Alloc(make([]byte, 80)) // fits in the freed 100-byte extent
	if c != a {
		t.Fatalf("expected reuse of freed extent at %d, got %d", a, c)
	}
	// The remainder of the extent should be reusable too.
	d := s.Alloc(make([]byte, 20))
	if d != a+80 {
		t.Fatalf("expected remainder at %d, got %d", a+80, d)
	}
}

func TestEmptyPayloadAddressesUnique(t *testing.T) {
	s := New()
	a := s.Alloc(nil)
	b := s.Alloc(nil)
	if a == b {
		t.Fatal("empty payloads must still get distinct addresses")
	}
}

func TestSequentialPlacement(t *testing.T) {
	// Fresh stores allocate sequentially: the n-th payload begins where
	// the previous one ended. The boot simulator depends on this.
	s := New()
	var want uint64
	for i := 0; i < 20; i++ {
		p := make([]byte, 10+i)
		addr := s.Alloc(p)
		if addr != want {
			t.Fatalf("alloc %d at %d, want %d", i, addr, want)
		}
		want += uint64(len(p))
	}
}

func TestStats(t *testing.T) {
	s := New()
	s.Alloc(make([]byte, 100))
	a := s.Alloc(make([]byte, 40))
	s.Free(a)
	st := s.Stats()
	if st.Blocks != 1 || st.UsedBytes != 100 {
		t.Fatalf("blocks=%d used=%d", st.Blocks, st.UsedBytes)
	}
	if st.SpanBytes != 140 {
		t.Fatalf("span=%d want 140", st.SpanBytes)
	}
	if st.Allocs != 2 || st.Frees != 1 || st.FreeChunks != 1 {
		t.Fatalf("counters wrong: %+v", st)
	}
}

func TestAllocFreeQuick(t *testing.T) {
	// Property: after arbitrary alloc/free interleavings, every live
	// payload reads back intact and accounting matches a shadow model.
	f := func(ops []uint16) bool {
		s := New()
		live := map[uint64][]byte{}
		var order []uint64
		rng := rand.New(rand.NewSource(1))
		for _, op := range ops {
			if op%3 != 0 || len(order) == 0 {
				p := make([]byte, op%512)
				rng.Read(p)
				addr := s.Alloc(p)
				if _, clash := live[addr]; clash {
					return false
				}
				live[addr] = append([]byte(nil), p...)
				order = append(order, addr)
			} else {
				i := int(op) % len(order)
				addr := order[i]
				order = append(order[:i], order[i+1:]...)
				if s.Free(addr) != nil {
					return false
				}
				delete(live, addr)
			}
		}
		var used int64
		for addr, want := range live {
			got, err := s.Read(addr)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
			used += int64(len(want))
		}
		st := s.Stats()
		return st.Blocks == int64(len(live)) && st.UsedBytes == used
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAlloc(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	addrs := make([][]uint64, 8)
	for g := range addrs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				addrs[g] = append(addrs[g], s.Alloc([]byte{byte(g), byte(i)}))
			}
		}(g)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for g, as := range addrs {
		for i, a := range as {
			if seen[a] {
				t.Fatal("duplicate address across goroutines")
			}
			seen[a] = true
			got, err := s.Read(a)
			if err != nil || got[0] != byte(g) || got[1] != byte(i) {
				t.Fatalf("payload mismatch at %d", a)
			}
		}
	}
}

func BenchmarkAlloc4K(b *testing.B) {
	s := New()
	p := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		s.Alloc(p)
	}
}

// AllocShared aliases the caller's slice across stores; mutating hooks
// must copy-on-write so damage stays local, and addresses must follow
// Alloc's exact placement.
func TestAllocSharedCopyOnWrite(t *testing.T) {
	payload := []byte("shared payload bytes")
	a, b := New(), New()
	aa := a.AllocShared(payload)
	ba := b.AllocShared(payload)
	if aa != ba {
		t.Fatalf("shared placement diverged: %d vs %d", aa, ba)
	}
	plain := New()
	if pa := plain.Alloc(payload); pa != aa {
		t.Fatalf("AllocShared address %d != Alloc address %d", aa, pa)
	}
	if a.Stats().Shared != 1 {
		t.Fatalf("shared count = %d, want 1", a.Stats().Shared)
	}

	if err := a.Corrupt(aa, 3, 0xFF); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Read(aa)
	if bytes.Equal(got, payload) {
		t.Fatal("corrupt did not change a's payload")
	}
	bb, _ := b.Read(ba)
	if !bytes.Equal(bb, payload) {
		t.Fatal("corrupting a's copy leaked into b (no copy-on-write)")
	}
	if a.Stats().Shared != 0 {
		t.Fatal("corrupted payload still marked shared")
	}
	if b.Stats().Shared != 1 {
		t.Fatal("b lost its shared marking")
	}

	// Rewrite heals a in place without touching the (shared) original.
	fixed := make([]byte, len(payload))
	copy(fixed, payload)
	if err := b.Rewrite(ba, fixed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, []byte("shared payload bytes")) {
		t.Fatal("rewrite mutated the shared source slice")
	}
	if b.Stats().Shared != 0 {
		t.Fatal("rewritten payload still marked shared")
	}

	// Free clears the marking and recycles the extent.
	if err := a.Free(aa); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Shared != 0 {
		t.Fatal("freed payload still counted shared")
	}
}

// Share is the lender's half of AllocShared: the lent slice is the stored
// one (no copy), the lender's slot turns copy-on-write so neither side's
// rot or repair reaches the other, and freeing the lender's slot leaves
// the borrower's bytes alone.
func TestShareCopyOnWrite(t *testing.T) {
	want := []byte("stored once, held by both")
	lender, borrower := New(), New()
	la := lender.Alloc(want)
	lent, err := lender.Share(la)
	if err != nil {
		t.Fatal(err)
	}
	if stored, _ := lender.Read(la); &stored[0] != &lent[0] {
		t.Fatal("Share copied the payload")
	}
	if lender.Stats().Shared != 1 {
		t.Fatalf("lender's shared count = %d, want 1", lender.Stats().Shared)
	}
	ba := borrower.AllocShared(lent)

	// Lender rots, then is repaired: the borrower sees neither.
	if err := lender.Corrupt(la, 0, 0xFF); err != nil {
		t.Fatal(err)
	}
	if got, _ := borrower.Read(ba); !bytes.Equal(got, want) {
		t.Fatal("the lender's rot reached the borrower")
	}
	if err := lender.Rewrite(la, want); err != nil {
		t.Fatal(err)
	}
	if got, _ := lender.Read(la); !bytes.Equal(got, want) {
		t.Fatal("rewrite did not heal the lender")
	}

	// The reverse: lend again, rot the borrower.
	if lent, err = lender.Share(la); err != nil {
		t.Fatal(err)
	}
	b2 := borrower.AllocShared(lent)
	if err := borrower.Corrupt(b2, 1, 0x0F); err != nil {
		t.Fatal(err)
	}
	if got, _ := lender.Read(la); !bytes.Equal(got, want) {
		t.Fatal("the borrower's rot reached the lender")
	}

	// Freeing the lender's slot drops only its own reference.
	b3 := borrower.AllocShared(lent)
	if err := lender.Free(la); err != nil {
		t.Fatal(err)
	}
	if got, _ := borrower.Read(b3); !bytes.Equal(got, want) {
		t.Fatal("freeing the lender's slot disturbed the borrower")
	}
	if _, err := lender.Share(la); err == nil {
		t.Fatal("Share of a freed address succeeded")
	}
}

// AllocOwned stores the caller's slice itself — no copy, and no
// copy-on-write marking either: the store owns it outright.
func TestAllocOwnedTakesTheSlice(t *testing.T) {
	s := New()
	p := []byte("fresh codec output")
	a := s.AllocOwned(p)
	if got, _ := s.Read(a); &got[0] != &p[0] {
		t.Fatal("AllocOwned copied the payload")
	}
	if s.Stats().Shared != 0 {
		t.Fatal("an owned payload is marked shared")
	}
	if plain := New(); plain.Alloc(p) != a {
		t.Fatal("AllocOwned placement differs from Alloc")
	}
}

// usedByWalk is Stats().UsedBytes and Stats().Shared the way they were
// computed before the running totals: the sum of every stored payload's
// length, and the count of shared slots.
func usedByWalk(s *Store) (used, shared int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sl := range s.slots {
		used += int64(len(sl.b))
		if sl.shared {
			shared++
		}
	}
	return used, shared
}

// A seeded random schedule of every operation that stores, lends, writes
// or frees a payload — all three allocation forms, Share, Rewrite,
// Corrupt (both copy a shared slot first) and Free, with empty payloads
// and extent reuse in the mix — keeps UsedBytes and Shared equal to the
// walk after every step and at zero once everything is freed.
func TestUsedBytesMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New()
	var live []uint64
	check := func(op string, step int) {
		t.Helper()
		st := s.Stats()
		used, shared := usedByWalk(s)
		if st.UsedBytes != used || st.Shared != shared {
			t.Fatalf("step %d (%s): UsedBytes %d, Shared %d; walk %d, %d",
				step, op, st.UsedBytes, st.Shared, used, shared)
		}
		if st.Blocks != int64(len(live)) {
			t.Fatalf("step %d (%s): %d blocks, %d live", step, op, st.Blocks, len(live))
		}
	}
	for step := 0; step < 3000; step++ {
		op := rng.Intn(8)
		if len(live) == 0 {
			op = rng.Intn(3)
		}
		payload := make([]byte, rng.Intn(300)) // zero-length payloads included
		rng.Read(payload)
		pick := func() (int, uint64) { i := rng.Intn(len(live)); return i, live[i] }
		switch op {
		case 0:
			live = append(live, s.Alloc(payload))
			check("alloc", step)
		case 1:
			live = append(live, s.AllocOwned(payload))
			check("allocOwned", step)
		case 2:
			live = append(live, s.AllocShared(payload))
			check("allocShared", step)
		case 3:
			_, addr := pick()
			if _, err := s.Share(addr); err != nil {
				t.Fatal(err)
			}
			check("share", step)
		case 4:
			_, addr := pick()
			b, _ := s.Read(addr)
			if err := s.Rewrite(addr, make([]byte, len(b))); err != nil {
				t.Fatal(err)
			}
			check("rewrite", step)
		case 5:
			_, addr := pick()
			if b, _ := s.Read(addr); len(b) > 0 {
				if err := s.Corrupt(addr, int64(rng.Intn(len(b))), 0x40); err != nil {
					t.Fatal(err)
				}
			}
			check("corrupt", step)
		default:
			i, addr := pick()
			if err := s.Free(addr); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			check("free", step)
		}
	}
	for _, addr := range live {
		if err := s.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	live = nil
	check("teardown", -1)
	if st := s.Stats(); st.UsedBytes != 0 || st.Shared != 0 {
		t.Fatalf("teardown left %+v", st)
	}
}

// crc32c is the checksum the verdict tests check payloads against.
func crc32c(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }

// A slot's verdict lives exactly as long as its bytes: a repeat check of
// an unwritten payload hashes nothing, and after each write to the slot
// — Corrupt, Rewrite, Free and reuse of the address, Corrupt of a shared
// slot — the next check hashes and passes or fails as the bytes say.
// A failed check is never remembered, and a check against another
// checksum does not count as a verdict for it.
func TestReadCheckedVerdictLifecycle(t *testing.T) {
	var hashed int
	sum := func(b []byte) uint32 { hashed += len(b); return crc32c(b) }
	check := func(t *testing.T, s *Store, addr uint64, want uint32, pass bool, hashes int) {
		t.Helper()
		hashed = 0
		_, ok, err := s.ReadChecked(addr, want, sum)
		if err != nil || ok != pass || hashed != hashes {
			t.Fatalf("ReadChecked: ok %v, hashed %d bytes, %v; want ok %v, %d bytes", ok, hashed, err, pass, hashes)
		}
	}
	payload := []byte("a stored payload of some length")
	good, n := crc32c(payload), len(payload)

	s := New()
	a := s.Alloc(payload)
	check(t, s, a, good, true, n)
	check(t, s, a, good, true, 0)
	check(t, s, a, good+1, false, n) // another checksum is hashed, and fails
	check(t, s, a, good, true, 0)    // without costing the verdict

	if err := s.Corrupt(a, 3, 0x20); err != nil {
		t.Fatal(err)
	}
	check(t, s, a, good, false, n)
	check(t, s, a, good, false, n) // a failure is not remembered
	if err := s.Rewrite(a, payload); err != nil {
		t.Fatal(err)
	}
	check(t, s, a, good, true, n)
	check(t, s, a, good, true, 0)

	// Share keeps the verdict (it writes no byte); the lender's Corrupt
	// copies first and clears only the lender's, and the borrower's own
	// slot is hashed once and then passes as before.
	lent, err := s.Share(a)
	if err != nil {
		t.Fatal(err)
	}
	check(t, s, a, good, true, 0)
	b := New()
	ba := b.AllocShared(lent)
	check(t, b, ba, good, true, n)
	if err := s.Corrupt(a, 0, 0x01); err != nil {
		t.Fatal(err)
	}
	check(t, s, a, good, false, n)
	check(t, b, ba, good, true, 0)
	if err := b.Corrupt(ba, 0, 0x01); err != nil { // the borrower's copy-on-write
		t.Fatal(err)
	}
	check(t, b, ba, good, false, n)
	if err := s.Rewrite(a, payload); err != nil {
		t.Fatal(err)
	}
	check(t, s, a, good, true, n)

	// Free and reuse of the same address with the same bytes: the new
	// slot has no verdict of the old one's.
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadChecked(a, good, sum); err == nil {
		t.Fatal("ReadChecked of a freed address must fail")
	}
	if again := s.Alloc(payload); again != a {
		t.Fatalf("the freed extent at %d was not reused: %d", a, again)
	}
	check(t, s, a, good, true, n)
	check(t, s, a, good, true, 0)
}

// Readers check payloads while a writer rots, repairs, frees and
// re-places them. Every time the writer holds the lock, each slot with a
// verdict hashes to it: a verdict computed on bytes a write then changed
// is never recorded. Run under -race.
func TestReadCheckedVerdictNeverOutlivesItsBytes(t *testing.T) {
	s := New()
	payloads := make([][]byte, 8)
	addrs := make([]uint64, len(payloads))
	sums := make([]uint32, len(payloads))
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, 4096)
		addrs[i], sums[i] = s.Alloc(payloads[i]), crc32c(payloads[i])
	}
	invariant := func(step int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for addr, sl := range s.slots {
			if sl.checked && crc32c(sl.b) != sl.sum {
				t.Fatalf("step %d: the slot at %d keeps a verdict its bytes fail", step, addr)
			}
		}
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				i := rng.Intn(len(addrs))
				s.ReadChecked(addrs[i], sums[i], crc32c) // the bytes are not read: a write may change them in place
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 3000; step++ {
		i := rng.Intn(len(addrs))
		switch step % 3 {
		case 0:
			if err := s.Corrupt(addrs[i], int64(rng.Intn(4096)), 0x80); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := s.Rewrite(addrs[i], payloads[i]); err != nil {
				t.Fatal(err)
			}
		default:
			if err := s.Free(addrs[i]); err != nil {
				t.Fatal(err)
			}
			if got := s.Alloc(payloads[i]); got != addrs[i] {
				t.Fatalf("the freed extent at %d was not reused: %d", addrs[i], got)
			}
		}
		invariant(step)
	}
	close(done)
	readers.Wait()
}
