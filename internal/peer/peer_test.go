package peer

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// holds reports whether node currently announces obj in d.
func holds(d *Directory, obj, node string) bool { return slices.Contains(d.Holders(obj), node) }

// newLedger is a ledger with breakers off and private accounting.
func newLedger() *Ledger { return NewLedger(BreakerPolicy{}, metrics.NewCounterSet()) }

func TestAnnounceWithdraw(t *testing.T) {
	ix := NewDirectory()
	ix.Announce("img-a", "node00")
	ix.Announce("img-a", "node01")
	ix.Announce("img-b", "node00")
	if got := ix.Holders("img-a"); !reflect.DeepEqual(got, []string{"node00", "node01"}) {
		t.Fatalf("holders: %v", got)
	}
	if ix.Objects() != 2 || ix.Entries() != 3 {
		t.Fatalf("objects=%d entries=%d", ix.Objects(), ix.Entries())
	}
	ix.Withdraw("img-a", "node00")
	if holds(ix, "img-a", "node00") || !holds(ix, "img-a", "node01") {
		t.Fatal("withdraw applied to the wrong node")
	}
	ix.Withdraw("img-a", "node01")
	if ix.Objects() != 1 {
		t.Fatalf("empty holder set should drop the object: %d objects", ix.Objects())
	}
	// Withdrawing something never announced is a no-op.
	ix.Withdraw("ghost", "node09")
}

func TestWithdrawNodeAndObject(t *testing.T) {
	ix := NewDirectory()
	for _, obj := range []string{"a", "b", "c"} {
		ix.Announce(obj, "node00")
		ix.Announce(obj, "node01")
	}
	ix.WithdrawNode("node00")
	for _, obj := range []string{"a", "b", "c"} {
		if holds(ix, obj, "node00") {
			t.Fatalf("node00 still holds %s after WithdrawNode", obj)
		}
		if !holds(ix, obj, "node01") {
			t.Fatalf("node01 lost %s collaterally", obj)
		}
	}
	ix.WithdrawObject("b")
	if ix.Objects() != 2 || holds(ix, "b", "node01") {
		t.Fatal("WithdrawObject left entries behind")
	}
}

func TestSetHoldings(t *testing.T) {
	ix := NewDirectory()
	ix.SetHoldings("node00", []string{"a", "b"})
	ix.SetHoldings("node01", []string{"b", "c"})
	ix.SetHoldings("node00", []string{"b", "d"}) // drops a, adds d
	if holds(ix, "a", "node00") {
		t.Fatal("stale announcement survived SetHoldings")
	}
	for _, obj := range []string{"b", "d"} {
		if !holds(ix, obj, "node00") {
			t.Fatalf("node00 should hold %s", obj)
		}
	}
	if !holds(ix, "c", "node01") || !holds(ix, "b", "node01") {
		t.Fatal("SetHoldings for node00 disturbed node01")
	}
	ix.SetHoldings("node00", nil)
	if holds(ix, "b", "node00") || holds(ix, "d", "node00") {
		t.Fatal("empty SetHoldings should withdraw everything")
	}
}

func TestAcquireSelectionOrder(t *testing.T) {
	ix := newLedger()
	img := []string{"node02", "node00", "node01"}
	// Equal load everywhere: lexically smallest wins.
	src, rel, ok, busy := ix.Acquire(img, 4, nil)
	if !ok || busy || src != "node00" {
		t.Fatalf("first acquire: src=%s ok=%v busy=%v", src, ok, busy)
	}
	// node00 now has an active serve: next pick is node01.
	src2, rel2, ok, _ := ix.Acquire(img, 4, nil)
	if !ok || src2 != "node01" {
		t.Fatalf("second acquire: %s", src2)
	}
	rel(1000) // node00: 1000 bytes served
	rel2(10)  // node01: 10 bytes served
	// No active serves; node02 has served nothing yet, so it leads.
	src3, rel3, ok, _ := ix.Acquire(img, 4, nil)
	if !ok || src3 != "node02" {
		t.Fatalf("least-bytes acquire: %s", src3)
	}
	rel3(0)
	// With node02 excluded, node01 (10 bytes) beats node00 (1000 bytes).
	src4, rel4, ok, _ := ix.Acquire(img, 4, func(n string) bool { return n == "node02" })
	if !ok || src4 != "node01" {
		t.Fatalf("excluded acquire: %s", src4)
	}
	rel4(0)
}

func TestAcquireSlotBound(t *testing.T) {
	ix := newLedger()
	img := []string{"node00"}
	var rels []func(int64)
	for i := 0; i < 2; i++ {
		_, rel, ok, busy := ix.Acquire(img, 2, nil)
		if !ok || busy {
			t.Fatalf("acquire %d should succeed", i)
		}
		rels = append(rels, rel)
	}
	if _, _, ok, busy := ix.Acquire(img, 2, nil); ok || !busy {
		t.Fatalf("third acquire should report busy: ok=%v busy=%v", ok, busy)
	}
	rels[0](64)
	if _, rel, ok, _ := ix.Acquire(img, 2, nil); !ok {
		t.Fatal("slot released, acquire should succeed")
	} else {
		rel(0)
	}
	rels[1](0)
	// busy=false when there is simply no holder.
	if _, _, ok, busy := ix.Acquire(nil, 2, nil); ok || busy {
		t.Fatalf("no-holder acquire: ok=%v busy=%v", ok, busy)
	}
}

func TestReleaseIdempotentAndLoads(t *testing.T) {
	ix := newLedger()
	_, rel, ok, _ := ix.Acquire([]string{"node00"}, 1, nil)
	if !ok {
		t.Fatal("acquire failed")
	}
	rel(128)
	rel(128) // second call must be a no-op
	loads := ix.Loads()
	if len(loads) != 1 {
		t.Fatalf("loads: %v", loads)
	}
	l := loads[0]
	if l.NodeID != "node00" || l.Active != 0 || l.ServedReads != 1 || l.ServedBytes != 128 {
		t.Fatalf("load: %+v", l)
	}
}

func TestPolicyNormalize(t *testing.T) {
	p := Policy{Enabled: true}.Normalize()
	if p.MaxServeSlots != DefaultMaxServeSlots {
		t.Fatalf("normalize: %+v", p)
	}
	q := Policy{MaxServeSlots: 9}.Normalize()
	if q.MaxServeSlots != 9 {
		t.Fatalf("normalize clobbered set values: %+v", q)
	}
}

func TestIndexConcurrent(t *testing.T) {
	// One Directory and one breaker-enabled Ledger under concurrent
	// announce/withdraw, acquire/release and serve outcomes: the race
	// detector checks each type's single lock, and every slot comes back.
	dir, led := NewDirectory(), NewLedger(DefaultBreakerPolicy(), metrics.NewCounterSet())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := fmt.Sprintf("node%02d", w)
			for i := 0; i < 200; i++ {
				obj := fmt.Sprintf("img-%d", i%10)
				dir.Announce(obj, node)
				if src, rel, ok, _ := led.Acquire(dir.Holders(obj), 2, nil); ok {
					led.RecordServe(src, i%3 != 0)
					rel(64)
				}
				if i%3 == 0 {
					dir.Withdraw(obj, node)
				}
				dir.SetHoldings(node, []string{"img-0", "img-1"})
			}
			led.Loads()
			led.BreakerState(node)
			dir.Entries()
		}()
	}
	wg.Wait()
	for _, l := range led.Loads() {
		if l.Active != 0 {
			t.Fatalf("leaked serve slot: %+v", l)
		}
	}
}

func TestIndexMatchesNaiveModel(t *testing.T) {
	// The index keeps two maps in step (object → holders and its
	// inverse). A seeded run of every mutation, checked after each step
	// against one plain set of (object, node) pairs, catches either map
	// drifting from the other.
	rng := rand.New(rand.NewSource(5))
	ix := NewDirectory()
	type pair struct{ obj, node string }
	model := map[pair]bool{}
	name := func(kind string, n int) string { return fmt.Sprintf("%s%d", kind, rng.Intn(n)) }
	for step := 0; step < 2000; step++ {
		obj, node := name("obj", 6), name("node", 4)
		switch rng.Intn(6) {
		case 0, 1:
			ix.Announce(obj, node)
			model[pair{obj, node}] = true
		case 2:
			ix.Withdraw(obj, node)
			delete(model, pair{obj, node})
		case 3:
			ix.WithdrawNode(node)
			for p := range model {
				if p.node == node {
					delete(model, p)
				}
			}
		case 4:
			ix.WithdrawObject(obj)
			for p := range model {
				if p.obj == obj {
					delete(model, p)
				}
			}
		default:
			var objs []string
			for i := rng.Intn(4); i > 0; i-- {
				objs = append(objs, name("obj", 6))
			}
			ix.SetHoldings(node, objs)
			for p := range model {
				if p.node == node {
					delete(model, p)
				}
			}
			for _, o := range objs {
				model[pair{o, node}] = true
			}
		}
		objects := map[string]bool{}
		for p := range model {
			objects[p.obj] = true
		}
		if ix.Entries() != len(model) || ix.Objects() != len(objects) {
			t.Fatalf("step %d: index has %d entries over %d objects, model %d over %d",
				step, ix.Entries(), ix.Objects(), len(model), len(objects))
		}
		for n := 0; n < 4; n++ {
			node := fmt.Sprintf("node%d", n)
			want := 0
			for o := 0; o < 6; o++ {
				obj := fmt.Sprintf("obj%d", o)
				if model[pair{obj, node}] {
					want++
				}
				if holds(ix, obj, node) != model[pair{obj, node}] {
					t.Fatalf("step %d: Holds(%s, %s) = %v", step, obj, node, !model[pair{obj, node}])
				}
			}
			if got := ix.AnnouncedBy(node); got != want {
				t.Fatalf("step %d: AnnouncedBy(%s) = %d, model %d", step, node, got, want)
			}
		}
	}
}
