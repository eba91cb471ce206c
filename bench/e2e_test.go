package main

import "testing"

func TestQuietestRounds(t *testing.T) {
	round := func(wall, steal float64) roundStats { return roundStats{wallSec: wall, stealFrac: steal} }
	walls := func(rs []roundStats) []float64 {
		var out []float64
		for _, r := range rs {
			out = append(out, r.wallSec)
		}
		return out
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	// Enough undisturbed rounds: exactly those, in run order.
	all := []roundStats{round(1, 0), round(2, 0.4), round(3, 0.01), round(4, maxStealFrac), round(5, 0.2)}
	if got := walls(quietest(all, 3)); !same(got, []float64{1, 3, 4}) {
		t.Errorf("quiet rounds = %v, want [1 3 4]", got)
	}
	// Too few: the least disturbed ones make up the number.
	all = []roundStats{round(1, 0.5), round(2, 0.4), round(3, 0.01), round(4, 0.3), round(5, 0.2)}
	if got := walls(quietest(all, 3)); !same(got, []float64{3, 5, 4}) {
		t.Errorf("least disturbed rounds = %v, want [3 5 4]", got)
	}
	// Nothing to choose from.
	all = []roundStats{round(1, 0.5), round(2, 0.4)}
	if got := walls(quietest(all, 3)); !same(got, []float64{1, 2}) {
		t.Errorf("all rounds = %v, want [1 2]", got)
	}
}
