package zvol

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
)

// countHashing routes every read's CRC32C through a counter of the bytes
// it hashes until the test ends. The swap is not synchronized: a test
// that calls it must not run in parallel with reads.
func countHashing(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	checksum = func(b []byte) uint32 {
		n.Add(int64(len(b)))
		return block.CRC32C(b)
	}
	t.Cleanup(func() { checksum = block.CRC32C })
	return &n
}

// storedBytes is Σ physLen over the distinct payloads name's blocks are
// stored in: what a first read of the whole object hashes.
func storedBytes(t *testing.T, v *Volume, name string) int64 {
	t.Helper()
	infos, err := v.BlockInfos(name)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	var n int64
	for _, bi := range infos {
		if !bi.Zero && !seen[bi.Addr] {
			seen[bi.Addr] = true
			n += int64(bi.PhysLen)
		}
	}
	return n
}

// A stored payload is hashed once per write, not once per read: a hot
// range is read without hashing, and after every write to a payload —
// rot of an owned slot, of a slot lent through Share and of one borrowed
// through AllocShared, RepairBlock, and Free followed by reuse of the
// address — the next read hashes it and fails or passes as its bytes
// say. Scrub, the at-rest audit, hashes every payload on every pass.
func TestChecksumVerdictLifecycle(t *testing.T) {
	hashed := countHashing(t)
	// visit reads [off, off+len(want)) of name and returns the bytes the
	// read hashed; the read must fail ErrCorrupt when want is nil.
	visit := func(t *testing.T, v *Volume, name string, off int64, n int, want []byte) int64 {
		t.Helper()
		start := hashed.Load()
		got := make([]byte, n)
		err := visitCopy(t, v, name, got, off)
		switch {
		case want == nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("Visit %s [%d,+%d) over a rotted block: %v", name, off, n, err)
		case want != nil && (err != nil || !bytes.Equal(got, want)):
			t.Fatalf("Visit %s [%d,+%d): %v", name, off, n, err)
		}
		return hashed.Load() - start
	}

	_, src, st := countedPair(t) // Send checked and lent src's payloads: its slots are shared
	replica, err := New(src.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ReceivePrepared(src.Prepare(st)); err != nil { // its slots alias src's payloads
		t.Fatal(err)
	}
	want, err := src.ReadObject("base")
	if err != nil {
		t.Fatal(err)
	}
	owner, err := New(src.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteObject("base", bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	infos, err := owner.BlockInfos("base")
	if err != nil {
		t.Fatal(err)
	}
	idx := slices.IndexFunc(infos, func(bi BlockInfo) bool { return bi.Compressed })
	if idx < 0 {
		t.Fatal("base has no compressed block")
	}
	bs := int(src.Config().BlockSize)
	off, intact := int64(idx*bs), want[idx*bs:(idx+1)*bs]
	pl := int64(infos[idx].PhysLen)

	t.Run("a hot range hashes nothing", func(t *testing.T) {
		for _, v := range []*Volume{owner, replica} {
			if got, first := visit(t, v, "base", 0, len(want), want), storedBytes(t, v, "base"); got != first {
				t.Fatalf("first Visit hashed %d bytes, want every stored payload once (%d)", got, first)
			}
			if got := visit(t, v, "base", 0, len(want), want); got != 0 {
				t.Fatalf("second Visit of a hot range hashed %d bytes", got)
			}
		}
		if got := visit(t, src, "base", 0, len(want), want); got != 0 {
			t.Fatalf("Visit after Send checked every payload hashed %d bytes", got)
		}
	})

	t.Run("rot and repair of an owned slot", func(t *testing.T) {
		if err := owner.CorruptStoredBlock("base", idx, 5, 0x04); err != nil {
			t.Fatal(err)
		}
		if got := visit(t, owner, "base", off, bs, nil); got != pl {
			t.Fatalf("read after rot hashed %d bytes, want the block's %d", got, pl)
		}
		if got := visit(t, owner, "base", off, bs, nil); got != pl {
			t.Fatalf("second read of the rot hashed %d bytes, want %d: a failure is not remembered", got, pl)
		}
		if err := owner.RepairBlock("base", idx, intact); err != nil {
			t.Fatal(err)
		}
		if got := visit(t, owner, "base", off, bs, intact); got != pl {
			t.Fatalf("read after repair hashed %d bytes, want %d", got, pl)
		}
		if got := visit(t, owner, "base", off, bs, intact); got != 0 {
			t.Fatalf("second read after repair hashed %d bytes", got)
		}
	})

	t.Run("rot and repair of shared slots", func(t *testing.T) {
		// src lent the payload (Share), the replica borrowed it
		// (AllocShared): each one's rot lands on a private copy.
		if err := src.CorruptStoredBlock("base", idx, 5, 0x04); err != nil {
			t.Fatal(err)
		}
		if got := visit(t, src, "base", off, bs, nil); got != pl {
			t.Fatalf("lender's read after rot hashed %d bytes, want %d", got, pl)
		}
		if got := visit(t, replica, "base", off, bs, intact); got != 0 {
			t.Fatalf("borrower's read after the lender's rot hashed %d bytes", got)
		}
		if err := replica.CorruptStoredBlock("base", idx, 9, 0x40); err != nil {
			t.Fatal(err)
		}
		if got := visit(t, replica, "base", off, bs, nil); got != pl {
			t.Fatalf("borrower's read after rot hashed %d bytes, want %d", got, pl)
		}
		for _, v := range []*Volume{src, replica} {
			if err := v.RepairBlock("base", idx, intact); err != nil {
				t.Fatal(err)
			}
			if got := visit(t, v, "base", off, bs, intact); got != pl {
				t.Fatalf("read after repair hashed %d bytes, want %d", got, pl)
			}
			if got := visit(t, v, "base", off, bs, intact); got != 0 {
				t.Fatalf("second read after repair hashed %d bytes", got)
			}
		}
	})

	t.Run("free and reuse of the address", func(t *testing.T) {
		v, err := New(src.Config())
		if err != nil {
			t.Fatal(err)
		}
		addr := oneBlock(t, v, "x", 'q')
		n := storedBytes(t, v, "x")
		if got := visit(t, v, "x", 0, 4096, blockOf('q')); got != n {
			t.Fatalf("first read hashed %d bytes, want %d", got, n)
		}
		if err := v.DeleteObject("x"); err != nil { // no snapshot holds it: freed
			t.Fatal(err)
		}
		if again := oneBlock(t, v, "x", 'q'); again != addr {
			t.Fatalf("the freed extent at %d was not reused: %d", addr, again)
		}
		if got := visit(t, v, "x", 0, 4096, blockOf('q')); got != n {
			t.Fatalf("read of the same bytes at a reused address hashed %d bytes, want %d", got, n)
		}
	})

	t.Run("every scrub pass hashes every payload", func(t *testing.T) {
		for _, v := range []*Volume{owner, replica, src} {
			for pass := 0; pass < 2; pass++ {
				start := hashed.Load()
				rep := v.Scrub()
				if !rep.Clean() {
					t.Fatalf("scrub pass %d: %+v", pass, rep)
				}
				if got := hashed.Load() - start; got != rep.ScannedBytes || got == 0 {
					t.Fatalf("scrub pass %d hashed %d bytes, scanned %d", pass, got, rep.ScannedBytes)
				}
			}
		}
	})
}

// Readers Visit ranges of an owned volume and of a prepared replica (its
// slots alias the sender's payloads) while a writer rots a raw block and
// a compressed one on both, waits until a reader has been refused them,
// and repairs them, round after round. A raw block's payload is what a
// read lends, so a verdict that outlived its bytes would lend rot. No
// lent byte is ever a rotted one: a Visit lends the written bytes or
// fails ErrCorrupt and lends nothing. Run under -race.
func TestChecksumVerdictUnderConcurrentRotAndRepair(t *testing.T) {
	const bs = 4096
	src, err := New(cfg(bs, "gzip6", true))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var want []byte
	for i := 0; i < 4; i++ { // compressible, random (stored raw), and again
		b := mkData(int64(i), bs)
		if i%2 == 1 {
			rng.Read(b)
		}
		want = append(want, b...)
	}
	if _, err := src.WriteObject("base", bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Snapshot("s1", day(0)); err != nil {
		t.Fatal(err)
	}
	st, err := src.Send("", "s1")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := New(src.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ReceivePrepared(src.Prepare(st)); err != nil {
		t.Fatal(err)
	}
	owner, err := New(src.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteObject("base", bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	infos, err := owner.BlockInfos("base")
	if err != nil {
		t.Fatal(err)
	}
	rotted := []int{
		slices.IndexFunc(infos, func(bi BlockInfo) bool { return !bi.Compressed }),
		slices.IndexFunc(infos, func(bi BlockInfo) bool { return bi.Compressed }),
	}
	if rotted[0] < 0 || rotted[1] < 0 {
		t.Fatalf("want a raw and a compressed block: %+v", infos)
	}
	vols := []*Volume{owner, replica}

	var refused atomic.Int64 // Visits failed with ErrCorrupt
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
				v := vols[rng.Intn(len(vols))]
				off := rng.Int63n(int64(len(want)))
				n := 1 + rng.Int63n(min(int64(len(want))-off, 2*bs))
				pos := off
				err := v.Visit("base", off, n, func(p []byte) {
					if !bytes.Equal(p, want[pos:pos+int64(len(p))]) {
						t.Errorf("Visit base [%d,+%d) lent bytes nobody wrote at %d", off, n, pos)
					}
					pos += int64(len(p))
				})
				switch {
				case errors.Is(err, ErrCorrupt) && pos == off:
					refused.Add(1)
				case err != nil:
					t.Errorf("Visit base [%d,+%d): %v after lending %d bytes", off, n, err, pos-off)
					return
				}
			}
		}(g)
	}
	deadline := time.Now().Add(20 * time.Second)
	for round := 0; round < 100 && !t.Failed(); round++ {
		before := refused.Load()
		for _, v := range vols {
			for _, idx := range rotted {
				if err := v.CorruptStoredBlock("base", idx, int64(round%64), 1<<(round%8)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for refused.Load() == before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		for _, v := range vols {
			for _, idx := range rotted {
				if err := v.RepairBlock("base", idx, want[idx*bs:(idx+1)*bs]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	close(done)
	readers.Wait()
	if refused.Load() == 0 {
		t.Fatal("no reader was ever refused a rotted block")
	}
}
