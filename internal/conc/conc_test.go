package conc

import (
	"runtime"
	"sync/atomic"
	"testing"
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
