package fault

import (
	"bytes"
	"fmt"
	"testing"
)

func mustNew(t *testing.T, p Plan) *Injector {
	t.Helper()
	in, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Drop: -0.1},
		{Drop: 1.1},
		{Drop: 0.5, Corrupt: 0.6},
		{MaxCrashes: -1},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Fatalf("plan %+v should be rejected", p)
		}
	}
	if _, err := New(Plan{Seed: 1, Drop: 0.5, Truncate: 0.2, Corrupt: 0.3}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossInjectors(t *testing.T) {
	p := Plan{Seed: 99, Drop: 0.2, Truncate: 0.1, Corrupt: 0.2}
	a, b := mustNew(t, p), mustNew(t, p)
	wire := bytes.Repeat([]byte("squirrel"), 64)
	for op := 0; op < 5; op++ {
		for dst := 0; dst < 8; dst++ {
			for attempt := 0; attempt < 4; attempt++ {
				o, d := fmt.Sprintf("op%d", op), fmt.Sprintf("n%d", dst)
				ka, wa := a.Strike(o, d, attempt, wire)
				kb, wb := b.Strike(o, d, attempt, wire)
				if ka != kb || !bytes.Equal(wa, wb) {
					t.Fatalf("(%s,%s,%d): %v/%v diverge", o, d, attempt, ka, kb)
				}
			}
		}
	}
}

func TestDecisionIndependentOfCallOrder(t *testing.T) {
	p := Plan{Seed: 7, Drop: 0.3, Corrupt: 0.3}
	a, b := mustNew(t, p), mustNew(t, p)
	// a decides forward, b backward: per-decision hashing must agree.
	const n = 100
	ka := make([]Kind, n)
	for i := 0; i < n; i++ {
		ka[i] = a.Decide("op", fmt.Sprintf("n%d", i), 0)
	}
	for i := n - 1; i >= 0; i-- {
		if kb := b.Decide("op", fmt.Sprintf("n%d", i), 0); kb != ka[i] {
			t.Fatalf("decision %d depends on call order: %v != %v", i, kb, ka[i])
		}
	}
}

func TestDistributionRoughlyMatchesPlan(t *testing.T) {
	in := mustNew(t, Plan{Seed: 4, Drop: 0.25})
	drops := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if in.Decide("dist", fmt.Sprintf("n%d", i), 0) == Drop {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.22 || got > 0.28 {
		t.Fatalf("drop rate %.3f far from planned 0.25", got)
	}
}

func TestMutations(t *testing.T) {
	wire := bytes.Repeat([]byte{0xAB}, 4096)
	orig := append([]byte(nil), wire...)
	// Probability 1 for each kind in turn, deterministic over all targets.
	for _, tc := range []struct {
		plan Plan
		want Kind
	}{
		{Plan{Seed: 1, Drop: 1}, Drop},
		{Plan{Seed: 1, Truncate: 1}, Truncate},
		{Plan{Seed: 1, Corrupt: 1}, Corrupt},
	} {
		in := mustNew(t, tc.plan)
		for i := 0; i < 50; i++ {
			dst := fmt.Sprintf("n%d", i)
			k, got := in.Strike("op", dst, 0, wire)
			if k != tc.want {
				t.Fatalf("kind %v, want %v", k, tc.want)
			}
			switch tc.want {
			case Drop:
				if got != nil {
					t.Fatal("drop must deliver nothing")
				}
			case Truncate:
				if len(got) >= len(wire) {
					t.Fatalf("truncate kept %d of %d bytes", len(got), len(wire))
				}
				if !bytes.Equal(got, wire[:len(got)]) {
					t.Fatal("truncation must be a prefix")
				}
			case Corrupt:
				if len(got) != len(wire) {
					t.Fatalf("corrupt changed length %d → %d", len(wire), len(got))
				}
				if bytes.Equal(got, wire) {
					t.Fatalf("corrupt(%s) left wire intact", dst)
				}
			}
			if !bytes.Equal(wire, orig) {
				t.Fatal("Strike mutated the caller's wire slice")
			}
		}
	}
}

func TestNoFaultsDeliversSameSlice(t *testing.T) {
	in := mustNew(t, Plan{Seed: 3})
	wire := []byte("payload")
	k, got := in.Strike("op", "n0", 0, wire)
	if k != None || &got[0] != &wire[0] {
		t.Fatal("fault-free delivery must return the original slice")
	}
	// A nil injector is a perfect network.
	var nilInj *Injector
	if k, got := nilInj.Strike("op", "n0", 0, wire); k != None || &got[0] != &wire[0] {
		t.Fatal("nil injector must be a no-op")
	}
	if nilInj.Decide("op", "n0", 0) != None || nilInj.Crashes() != 0 {
		t.Fatal("nil injector must decide None")
	}
	nilInj.Counters().Add("x", 1) // must not panic
}

func TestCrashBudget(t *testing.T) {
	in := mustNew(t, Plan{Seed: 8, Crash: 1, MaxCrashes: 2})
	crashes, drops := 0, 0
	for i := 0; i < 10; i++ {
		switch in.Decide("op", fmt.Sprintf("n%d", i), 0) {
		case Crash:
			crashes++
		case Drop:
			drops++
		}
	}
	if crashes != 2 || drops != 8 {
		t.Fatalf("crashes=%d drops=%d, want 2/8", crashes, drops)
	}
	if in.Crashes() != 2 {
		t.Fatalf("Crashes() = %d", in.Crashes())
	}
	c := in.Counters().Snapshot()
	if c["fault.crash"] != 2 || c["fault.drop"] != 8 || c["fault.crash_degraded"] != 8 {
		t.Fatalf("counters %v", c)
	}
}

func TestDeliverAgreesWithStrike(t *testing.T) {
	// Deliver is Strike without the bytes: over every kind, crash budget
	// spent and not, and every length (empty included), the two agree on
	// the kind and on how many bytes arrive, and they draw the crash
	// budget down in the same steps. The lazy form — Deliver, then Damage
	// over bytes encoded on demand — draws the same verdicts, asks for the
	// bytes only when the verdict Damages (Truncate, Corrupt), and then
	// hands over exactly Strike's bytes.
	for seed := int64(1); seed <= 4; seed++ {
		p := Plan{Seed: seed, Drop: 0.15, Truncate: 0.2, Corrupt: 0.15, Crash: 0.1, Torn: 0.1, MaxCrashes: 6}
		a, b, c := mustNew(t, p), mustNew(t, p), mustNew(t, p)
		seen := make(map[Kind]int)
		for op := 0; op < 4; op++ {
			for attempt := 1; attempt <= 6; attempt++ {
				for _, n := range []int{0, 1, 7, 4096} {
					o, d := fmt.Sprintf("peerfetch:img%d:node01", op), fmt.Sprintf("node0%d", n%5)
					wire := bytes.Repeat([]byte{0xa5}, n)
					ks, got := a.Strike(o, d, attempt, wire)
					kd, m := b.Deliver(o, d, attempt, n)
					if ks != kd || len(got) != m {
						t.Fatalf("seed %d (%s,%s,%d) n=%d: Strike %v/%d bytes, Deliver %v/%d",
							seed, o, d, attempt, n, ks, len(got), kd, m)
					}
					encoded := 0
					encode := func() []byte { encoded++; return bytes.Clone(wire) }
					kl, ml := c.Deliver(o, d, attempt, n)
					var lazy []byte
					if kl.Damages() {
						lazy = c.Damage(o, d, attempt, kl, ml, encode())
					}
					wantEncodes := 0
					if kl == Truncate || kl == Corrupt {
						wantEncodes = 1
					}
					if kl != ks || ml != m || encoded != wantEncodes {
						t.Fatalf("seed %d (%s,%s,%d) n=%d: lazy form %v/%d bytes, %d encodes; Strike %v/%d",
							seed, o, d, attempt, n, kl, ml, encoded, ks, len(got))
					}
					if kl.Damages() && !bytes.Equal(lazy, got) {
						t.Fatalf("seed %d (%s,%s,%d) n=%d: the lazy form damaged the bytes unlike Strike", seed, o, d, attempt, n)
					}
					if a.Crashes() != b.Crashes() || a.Crashes() != c.Crashes() {
						t.Fatalf("seed %d (%s,%s,%d) n=%d: crash budget %d vs %d vs %d",
							seed, o, d, attempt, n, a.Crashes(), b.Crashes(), c.Crashes())
					}
					seen[kd]++
				}
			}
		}
		for _, k := range []Kind{None, Drop, Truncate, Corrupt, Crash, Torn} {
			if seen[k] == 0 {
				t.Fatalf("seed %d: the sweep never drew %v: %v", seed, k, seen)
			}
		}
		ca, cb, cc := a.Counters().Snapshot(), b.Counters().Snapshot(), c.Counters().Snapshot()
		if ca["fault.crash_degraded"] == 0 || len(ca) != len(cb) || len(ca) != len(cc) {
			t.Fatalf("seed %d: counters %v vs %v vs %v", seed, ca, cb, cc)
		}
		for k, v := range ca {
			if cb[k] != v || cc[k] != v {
				t.Fatalf("seed %d: counter %s: Strike %d, Deliver %d, lazy %d", seed, k, v, cb[k], cc[k])
			}
		}
	}
}

func TestTruncateEmptyWire(t *testing.T) {
	in := mustNew(t, Plan{Seed: 5, Truncate: 1})
	if _, got := in.Strike("op", "n0", 0, nil); got != nil {
		t.Fatal("truncating an empty wire must deliver nothing")
	}
}

func TestKindStrings(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{None, "none"},
		{Drop, "drop"},
		{Truncate, "truncate"},
		{Corrupt, "corrupt"},
		{Crash, "crash"},
		{Torn, "torn"},
		{Partition, "partition"},
		{Kind(99), "kind(99)"},
		{Kind(-1), "kind(-1)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(c.k), got, c.want)
		}
	}
}

func TestNoteCountsExternallyDecidedFaults(t *testing.T) {
	in := mustNew(t, Plan{Seed: 1})
	in.Note(Partition)
	in.Note(Partition)
	in.Note(None) // never counted
	if got := in.Counters().Get("fault.partition"); got != 2 {
		t.Fatalf("fault.partition = %d, want 2", got)
	}
	var nilInj *Injector
	nilInj.Note(Partition) // nil-safe
}

func TestDecideNeverDrawsPartition(t *testing.T) {
	// Partition is decided by the reachability map, not the probability
	// lanes: even a fully hostile plan must never draw it.
	in := mustNew(t, Plan{Seed: 3, Drop: 0.25, Truncate: 0.25, Corrupt: 0.25, Crash: 0.25, MaxCrashes: 1000})
	for i := 0; i < 500; i++ {
		if k := in.Decide("op", fmt.Sprintf("n%d", i), 0); k == Partition {
			t.Fatal("Decide drew Partition")
		}
	}
}
