package peer

import (
	"testing"

	"repro/internal/metrics"
)

// record feeds one serve outcome to node's breaker, as Finish does for
// a serve whose slot is already back.
func record(ix *Ledger, node string, ok bool) (tripped bool) {
	return ix.Finish(&Serve{Node: node}, 0, ok)
}

// failServes records n consecutive failed serves against node.
func failServes(ix *Ledger, node string, n int) (tripped bool) {
	for i := 0; i < n; i++ {
		if record(ix, node, false) {
			tripped = true
		}
	}
	return tripped
}

func TestBreakerTripSkipProbeRecover(t *testing.T) {
	ix := NewLedger(BreakerPolicy{Threshold: 3, Cooldown: 2}, metrics.NewCounterSet())
	img := []string{"node00", "node01"}

	if st := ix.BreakerState("node00"); st != "closed" {
		t.Fatalf("fresh breaker is %q, want closed", st)
	}
	// Two failures: still closed (threshold is 3).
	if failServes(ix, "node00", 2) {
		t.Fatal("breaker tripped below threshold")
	}
	// Third consecutive failure trips it.
	if !record(ix, "node00", false) {
		t.Fatal("threshold failure did not trip")
	}
	if st := ix.BreakerState("node00"); st != "open" {
		t.Fatalf("tripped breaker is %q, want open", st)
	}
	if got := ix.Counters().Get("breaker.trip"); got != 1 {
		t.Fatalf("breaker.trip = %d, want 1", got)
	}

	// While open, selection skips node00 and picks the other holder.
	src, release, ok, busy := ix.Acquire(img, 4, nil)
	if !ok || busy || src != "node01" {
		t.Fatalf("open selection: src=%q ok=%v busy=%v, want node01", src, ok, busy)
	}
	release(0)
	if got := ix.Counters().Get("breaker.skip"); got != 1 {
		t.Fatalf("breaker.skip = %d, want 1", got)
	}
	// The selection that exhausts the cooldown becomes the half-open
	// probe: node00 is a candidate again and wins the lexical tiebreak.
	src, release, ok, _ = ix.Acquire(img, 4, nil)
	if !ok || src != "node00" {
		t.Fatalf("probe selection picked %q, want node00", src)
	}
	release(0)
	if st := ix.BreakerState("node00"); st != "half-open" {
		t.Fatalf("post-cooldown breaker is %q, want half-open", st)
	}

	// Half-open: node00 is a candidate again (least-loaded wins as usual).
	// A failed probe reopens; a successful one closes.
	if record(ix, "node00", false) {
		t.Fatal("failed probe counted as a fresh trip")
	}
	if st := ix.BreakerState("node00"); st != "open" {
		t.Fatalf("failed probe left breaker %q, want open", st)
	}
	if got := ix.Counters().Get("breaker.reopen"); got != 1 {
		t.Fatalf("breaker.reopen = %d, want 1", got)
	}
	// Spend the second cooldown, then succeed the probe.
	for i := 0; i < 2; i++ {
		_, release, ok, _ := ix.Acquire(img, 4, nil)
		if !ok {
			t.Fatal("no candidate while node01 is healthy")
		}
		release(0)
	}
	record(ix, "node00", true)
	if st := ix.BreakerState("node00"); st != "closed" {
		t.Fatalf("successful probe left breaker %q, want closed", st)
	}
	if got := ix.Counters().Get("breaker.close"); got != 1 {
		t.Fatalf("breaker.close = %d, want 1", got)
	}
	// The failure streak reset: two fresh failures do not trip.
	if failServes(ix, "node00", 2) {
		t.Fatal("closed breaker remembered pre-recovery failures")
	}
}

func TestBreakerOpenHoldersSkippedNotBusy(t *testing.T) {
	ix := NewLedger(BreakerPolicy{Threshold: 1, Cooldown: 100}, metrics.NewCounterSet())
	img := []string{"node00"}
	record(ix, "node00", false) // trips immediately
	// The only holder is breaker-open: no candidate, and NOT busy — the
	// caller should fall straight back to the PFS, not retry.
	src, _, ok, busy := ix.Acquire(img, 4, nil)
	if ok || busy {
		t.Fatalf("src=%q ok=%v busy=%v, want no candidate and not busy", src, ok, busy)
	}
}

func TestBreakerDisabledByDefault(t *testing.T) {
	ix := NewLedger(BreakerPolicy{}, metrics.NewCounterSet())
	if failServes(ix, "node00", 100) {
		t.Fatal("disabled breakers tripped")
	}
	if st := ix.BreakerState("node00"); st != "" {
		t.Fatalf("disabled breaker state = %q, want empty", st)
	}
	if _, release, ok, _ := ix.Acquire([]string{"node00"}, 4, nil); !ok {
		t.Fatal("holder skipped with breakers disabled")
	} else {
		release(0)
	}
}

// Regression: with every un-excluded holder at capacity, Acquire must
// report busy=true (retry later) rather than a plain miss — and holders
// rejected by the exclusion hook must not masquerade as busy.
func TestAcquireAllBusyUnderExclusion(t *testing.T) {
	// Breakers are on from the start; no serve fails before node00's
	// below, so the first two verdicts are the breaker-free ones.
	ix := NewLedger(BreakerPolicy{Threshold: 1, Cooldown: 100}, metrics.NewCounterSet())
	img := []string{"node00", "node01", "node02"}

	// Saturate node01 and node02 with one in-flight serve each.
	var releases []func(int64)
	for i := 0; i < 2; i++ {
		src, release, ok, _ := ix.Acquire(img, 1, func(n string) bool { return n == "node00" })
		if !ok {
			t.Fatalf("saturating acquire %d failed", i)
		}
		releases = append(releases, release)
		_ = src
	}
	// node00 excluded (e.g. it is the booting node), the rest at their
	// slot bound: busy, not a miss.
	if _, _, ok, busy := ix.Acquire(img, 1, func(n string) bool { return n == "node00" }); ok || !busy {
		t.Fatalf("ok=%v busy=%v, want busy miss", ok, busy)
	}
	// Same with a breaker-open holder in the mix: still busy=true, the
	// open holder neither serves nor flips the verdict to a plain miss.
	record(ix, "node00", false)
	if _, _, ok, busy := ix.Acquire(img, 1, nil); ok || !busy {
		t.Fatalf("with open breaker: ok=%v busy=%v, want busy miss", ok, busy)
	}
	// Every holder excluded outright: a plain miss, not busy.
	if _, _, ok, busy := ix.Acquire(img, 1, func(string) bool { return true }); ok || busy {
		t.Fatalf("all excluded: ok=%v busy=%v, want plain miss", ok, busy)
	}
	for _, r := range releases {
		r(0)
	}
}
