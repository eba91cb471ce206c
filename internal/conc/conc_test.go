package conc

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		ForEach(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestForEachSerialOrder: one worker, or the GOMAXPROCS default at
// GOMAXPROCS 1 (how core's tests serialize Register's legs), is the
// in-order walk on the calling goroutine.
func TestForEachSerialOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, workers := range []int{1, 0} {
		var order []int
		ForEach(5, workers, func(i int) { order = append(order, i) })
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d: serial walk out of order: %v", workers, order)
			}
		}
		if len(order) != 5 {
			t.Fatalf("workers=%d: serial walk covered %d of 5", workers, len(order))
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	ran := false
	ForEach(0, 4, func(int) { ran = true })
	ForEach(-3, 4, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for n <= 0")
	}
}

func TestForEachParallelism(t *testing.T) {
	// With workers >= n every index can be in flight at once; prove at
	// least two really overlap by having them rendezvous.
	gate := make(chan struct{})
	var met atomic.Int32
	ForEach(2, 2, func(i int) {
		if met.Add(1) == 2 {
			close(gate)
		}
		<-gate
	})
	if met.Load() != 2 {
		t.Fatalf("expected both legs to run, got %d", met.Load())
	}
}

func TestStreamCoversEveryIndexPerBatch(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 7, 64} {
		const limit = 16
		var hits [limit]atomic.Int32
		s := NewStream(limit, workers, func(i int) { hits[i].Add(1) })
		for batch := 1; batch <= 3; batch++ {
			for i := 0; i < limit; i += batch { // batches of 16, 8 and 6 indices
				s.Add(i)
			}
			s.Wait()
			for i := range hits {
				want := int32(0)
				if i%batch == 0 {
					want = 1
				}
				if got := hits[i].Swap(0); got != want {
					t.Fatalf("workers=%d batch %d: index %d ran %d times, want %d", workers, batch, i, got, want)
				}
			}
		}
		s.Wait() // a Wait with nothing added returns at once
	}
}

// TestStreamSerialOrder: with one worker nothing runs until Wait, which
// runs every index in Add order on the calling goroutine.
func TestStreamSerialOrder(t *testing.T) {
	var order []int
	s := NewStream(5, 1, func(i int) { order = append(order, i) })
	for _, i := range []int{3, 1, 4, 0, 2} {
		s.Add(i)
	}
	if len(order) != 0 {
		t.Fatalf("ran %v before Wait", order)
	}
	s.Wait()
	if want := []int{3, 1, 4, 0, 2}; !slices.Equal(order, want) {
		t.Fatalf("serial stream ran %v, want %v", order, want)
	}
}

// TestStreamHelperOverlapsTheCaller: an index added is taken by a helper
// while the caller goes on, and no helper outlives Wait.
func TestStreamHelperOverlapsTheCaller(t *testing.T) {
	settled := runtime.NumGoroutine()
	started := make(chan struct{})
	s := NewStream(2, 2, func(i int) {
		if i == 0 {
			close(started)
		}
	})
	s.Add(0)
	select {
	case <-started: // the helper took index 0 before the caller waited
	case <-time.After(10 * time.Second):
		t.Fatal("no helper ran the added index")
	}
	s.Add(1)
	s.Wait()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > settled; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Wait, %d before", runtime.NumGoroutine(), settled)
		}
	}
}
