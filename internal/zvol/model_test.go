package zvol

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/block"
)

// TestModelBasedLifecycle drives a dedup volume and its replica through
// the reference model (runReference) on every seed: 6 and 7 for 120
// steps, past where TestStampsAgreeWithTableCopies stops, and 0–5 — which
// that test already drives 90 steps deep — for a short pass.
func TestModelBasedLifecycle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runReference(t, seed, modelSteps(seed), true)
		})
	}
}

// TestModelBasedLifecycleNoDedup is the same on a volume without a DDT,
// where every pointer owns its block and only a snapshot's stamp inside
// the object's [born, died) keeps a snapshotted block alive.
func TestModelBasedLifecycleNoDedup(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runReference(t, seed, modelSteps(seed), false)
		})
	}
}

// modelSteps is how many steps the lifecycle tests run seed for.
func modelSteps(seed int64) int {
	if seed < 6 {
		return 30
	}
	return 120
}

// heldReferences counts the nonzero block pointers of the objects v still
// holds — in the live table or listed by any snapshot.
func heldReferences(v *Volume) int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var n int64
	for _, o := range v.held {
		for _, p := range o.ptrs {
			if !p.zero {
				n++
			}
		}
	}
	return n
}

func anyKey[V any](rng *rand.Rand, m map[string]V) string {
	if len(m) == 0 {
		return ""
	}
	i := rng.Intn(len(m))
	for k := range m {
		if i == 0 {
			return k
		}
		i--
	}
	return ""
}

// TestReplicationModelBased replays random register/deregister rounds on
// a source volume and propagates each round to a replica incrementally,
// checking the replica converges after every round.
func TestReplicationModelBased(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	src, _ := New(DefaultConfig())
	dst, _ := New(DefaultConfig())
	live := map[string][]byte{}
	var lastSnap string
	clock := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)

	frag := make([]byte, 64*1024)
	rng.Read(frag)
	for round := 0; round < 25; round++ {
		clock = clock.Add(24 * time.Hour)
		// Mutate: add an object (mostly shared content), sometimes drop one.
		if rng.Intn(4) == 0 && len(live) > 0 {
			name := anyKey(rng, live)
			if err := src.DeleteObject(name); err != nil {
				t.Fatal(err)
			}
			delete(live, name)
			checkStats(t, src, fmt.Sprintf("round %d source delete", round))
		}
		name := fmt.Sprintf("cache%03d", round)
		data := append([]byte(nil), frag...)
		tail := make([]byte, 1+rng.Intn(32*1024))
		rng.Read(tail)
		data = append(data, tail...)
		if _, err := src.WriteObject(name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		live[name] = data
		checkStats(t, src, fmt.Sprintf("round %d source write", round))

		snap := fmt.Sprintf("s%03d", round)
		if _, err := src.Snapshot(snap, clock); err != nil {
			t.Fatal(err)
		}
		checkStats(t, src, fmt.Sprintf("round %d source snapshot", round))
		stream, err := src.Send(lastSnap, snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Receive(stream); err != nil {
			t.Fatalf("round %d receive: %v", round, err)
		}
		lastSnap = snap
		checkStats(t, dst, fmt.Sprintf("round %d replica receive", round))

		// Replica must hold exactly the live set with identical bytes.
		if got, want := len(dst.Objects()), len(live); got != want {
			t.Fatalf("round %d: replica has %d objects, want %d", round, got, want)
		}
		probe := anyKey(rng, live)
		got, err := dst.ReadObject(probe)
		if err != nil || !bytes.Equal(got, live[probe]) {
			t.Fatalf("round %d: replica %s diverged (err %v)", round, probe, err)
		}
	}
	// Teardown: both sides let go of everything and every total is zero.
	for _, v := range []*Volume{src, dst} {
		for _, name := range v.Objects() {
			if err := v.DeleteObject(name); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range v.Snapshots() {
			if err := v.DeleteSnapshot(s.Name); err != nil {
				t.Fatal(err)
			}
		}
		checkEmptied(t, v)
	}
}

// refObject is one object of the reference model: its bytes, its place in
// its volume's birth order, and the content hash of each block that is
// not a hole.
type refObject struct {
	name   string
	data   []byte
	seq    int
	blocks []block.Hash // holes left out
}

// refSnap is a snapshot the way zvol stored one before stamps: a full copy
// of the live table.
type refSnap struct {
	name    string
	at      time.Time
	objects map[string]*refObject
}

// refVolume is the reference model the stamped volume is checked against:
// the live table as a map, every snapshot a copy of it, nothing derived.
type refVolume struct {
	live  map[string]*refObject
	snaps []*refSnap // creation order
	seq   int
}

const refBlock = 4096

func (r *refVolume) put(name string, data []byte) {
	o := &refObject{name: name, data: data, seq: r.seq}
	r.seq++
	for off := 0; off < len(data); off += refBlock {
		if b := data[off:min(off+refBlock, len(data))]; len(bytes.Trim(b, "\x00")) > 0 {
			o.blocks = append(o.blocks, block.HashOf(b))
		}
	}
	r.live[name] = o
}

func (r *refVolume) snapshot(name string, at time.Time) {
	cp := make(map[string]*refObject, len(r.live))
	for k, o := range r.live {
		cp[k] = o
	}
	r.snaps = append(r.snaps, &refSnap{name: name, at: at, objects: cp})
}

func (r *refVolume) find(name string) int {
	return slices.IndexFunc(r.snaps, func(s *refSnap) bool { return s.name == name })
}

// gc is the retention rule: everything older than the window but the
// latest goes.
func (r *refVolume) gc(now time.Time, window time.Duration) []string {
	var gone []string
	kept := r.snaps[:0:0]
	for i, s := range r.snaps {
		if i < len(r.snaps)-1 && s.at.Before(now.Add(-window)) {
			gone = append(gone, s.name)
		} else {
			kept = append(kept, s)
		}
	}
	r.snaps = kept
	return gone
}

// diff is Send's contract stated on table copies: a name only `to` lists
// is upserted, one only `from` lists is deleted, each in birth order. A
// nil from is a full stream's origin.
func (r *refVolume) diff(from, to *refSnap) (upserts []*refObject, deletes []string) {
	var gone []*refObject
	if from != nil {
		for name, o := range from.objects {
			if to.objects[name] == nil {
				gone = append(gone, o)
			}
		}
	}
	for name, o := range to.objects {
		if from == nil || from.objects[name] == nil {
			upserts = append(upserts, o)
		}
	}
	bySeq := func(a, b *refObject) int { return a.seq - b.seq }
	slices.SortFunc(upserts, bySeq)
	slices.SortFunc(gone, bySeq)
	for _, o := range gone {
		deletes = append(deletes, o.name)
	}
	return upserts, deletes
}

// heldRefs counts the nonzero blocks of the distinct objects the model
// still reaches — what the volume's block references must add up to.
func (r *refVolume) heldRefs() int64 {
	seen := map[*refObject]bool{}
	var n int64
	count := func(objs map[string]*refObject) {
		for _, o := range objs {
			if !seen[o] {
				seen[o] = true
				n += int64(len(o.blocks))
			}
		}
	}
	count(r.live)
	for _, s := range r.snaps {
		count(s.objects)
	}
	return n
}

func sortedNames(objs map[string]*refObject) []string {
	names := make([]string, 0, len(objs))
	for n := range objs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkState compares what v lists, serves and accounts with the model:
// the live table, one random range of one live object read through
// Visit, every snapshot's listing, one snapshot read in full
// (and a miss on a name it does not list), every total Stats reports, and
// the held list's own invariants.
func (r *refVolume) checkState(t *testing.T, rng *rand.Rand, v *Volume, when string) {
	t.Helper()
	if got, want := v.Objects(), sortedNames(r.live); !slices.Equal(got, want) {
		t.Fatalf("%s: live table lists %v, model %v", when, got, want)
	}
	for name, o := range r.live {
		if got, err := v.ReadObject(name); err != nil || !bytes.Equal(got, o.data) {
			t.Fatalf("%s: live %s diverged (err %v)", when, name, err)
		}
	}
	if name := anyKey(rng, r.live); name != "" {
		want := r.live[name].data
		off := rng.Intn(len(want) + 1)
		p := make([]byte, rng.Intn(len(want)-off+1))
		if err := visitCopy(t, v, name, p, int64(off)); err != nil || !bytes.Equal(p, want[off:off+len(p)]) {
			t.Fatalf("%s: range [%d,+%d) of %s diverged (err %v)", when, off, len(p), name, err)
		}
	}
	snaps := v.Snapshots()
	if len(snaps) != len(r.snaps) {
		t.Fatalf("%s: %d snapshots, model %d", when, len(snaps), len(r.snaps))
	}
	for i, s := range snaps {
		want := r.snaps[i]
		if s.Name != want.name || !s.Created.Equal(want.at) {
			t.Fatalf("%s: snapshot %d is %s@%v, model %s@%v", when, i, s.Name, s.Created, want.name, want.at)
		}
		if got, want := s.Objects(), sortedNames(want.objects); !slices.Equal(got, want) {
			t.Fatalf("%s: snapshot %s lists %v, model %v", when, s.Name, got, want)
		}
	}
	if len(r.snaps) > 0 {
		s := r.snaps[rng.Intn(len(r.snaps))]
		for name, o := range s.objects {
			if got, err := v.ReadObjectAt(s.name, name); err != nil || !bytes.Equal(got, o.data) {
				t.Fatalf("%s: %s@%s diverged (err %v)", when, name, s.name, err)
			}
		}
		if _, err := v.ReadObjectAt(s.name, "never-written"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: reading an unlisted name at %s: %v", when, s.name, err)
		}
	}

	checkStats(t, v, when)
	st := v.Stats()
	var logical int64
	for _, o := range r.live {
		logical += int64(len(o.data))
	}
	if st.LogicalBytes != logical || st.Objects != int64(len(r.live)) || st.Snapshots != int64(len(r.snaps)) {
		t.Fatalf("%s: totals drifted from the model (%d B, %d objects, %d snapshots): %+v",
			when, logical, len(r.live), len(r.snaps), st)
	}
	if want := r.heldRefs(); st.References != want || heldReferences(v) != want {
		t.Fatalf("%s: %d block references, held list has %d, model holds %d", when, st.References, heldReferences(v), want)
	}

	// The held list: birth order, the live table's objects live, and every
	// dead one listed by a surviving snapshot.
	v.mu.RLock()
	defer v.mu.RUnlock()
	live := 0
	for i, o := range v.held {
		if i > 0 && v.held[i-1].born > o.born {
			t.Fatalf("%s: held list out of birth order at %d", when, i)
		}
		if o.died == 0 {
			if v.objects[o.Name] != o {
				t.Fatalf("%s: %s is held live but not on the live table", when, o.Name)
			}
			live++
		} else if !slices.ContainsFunc(v.snaps, func(s *Snapshot) bool { return s.lists(o) }) {
			t.Fatalf("%s: dead %s [%d,%d) is held and no snapshot lists it", when, o.Name, o.born, o.died)
		}
	}
	if live != len(v.objects) {
		t.Fatalf("%s: %d live objects held, live table has %d", when, live, len(v.objects))
	}
}

// checkSends compares Send between every ordered snapshot pair, and the
// full stream to every snapshot, with the model's diff — names, order,
// and which blocks travel: the first mention of a block the origin does
// not reference ships it, every other mention is by hash — and checks
// that a backwards pair is refused.
func (r *refVolume) checkSends(t *testing.T, v *Volume, when string) {
	t.Helper()
	check := func(from *refSnap, to *refSnap) {
		fromName := ""
		if from != nil {
			fromName = from.name
		}
		st, err := v.Send(fromName, to.name)
		if err != nil {
			t.Fatalf("%s: send %q→%s: %v", when, fromName, to.name, err)
		}
		upserts, deletes := r.diff(from, to)
		var got []string
		for _, so := range st.Upserts {
			got = append(got, so.Name)
		}
		var want []string
		for _, o := range upserts {
			want = append(want, o.name)
		}
		if !slices.Equal(got, want) || !slices.Equal(st.Deletes, deletes) {
			t.Fatalf("%s: send %q→%s carries upserts %v deletes %v, model %v and %v",
				when, fromName, to.name, got, st.Deletes, want, deletes)
		}
		payload := map[block.Hash]int{} // index among the shipped blocks; -1: the origin references it
		shipped := 0
		if from != nil {
			for _, o := range from.objects {
				for _, h := range o.blocks {
					payload[h] = -1
				}
			}
		}
		for i, o := range upserts {
			var got, want []StreamPtr
			for _, sp := range st.Upserts[i].Ptrs {
				if !sp.Zero {
					got = append(got, StreamPtr{Hash: sp.Hash, Payload: sp.Payload})
				}
			}
			for _, h := range o.blocks {
				if _, seen := payload[h]; !seen {
					payload[h] = shipped
					shipped++
				}
				want = append(want, StreamPtr{Hash: h, Payload: payload[h]})
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: send %q→%s ships the wrong blocks of %s", when, fromName, to.name, o.name)
			}
		}
		if n, _ := st.shipped(); n != shipped || len(st.Blocks) != 0 {
			t.Fatalf("%s: send %q→%s ships %d blocks (%d logical), model %d", when, fromName, to.name, n, len(st.Blocks), shipped)
		}
		for h, i := range payload {
			if i >= 0 && st.sent[i].Hash != h {
				t.Fatalf("%s: send %q→%s ships block %d under the wrong hash", when, fromName, to.name, i)
			}
		}
		if n, err := st.Encode(io.Discard); err != nil || n != st.WireSize() {
			t.Fatalf("%s: send %q→%s encodes to %d bytes (%v), WireSize says %d", when, fromName, to.name, n, err, st.WireSize())
		}
	}
	for i, to := range r.snaps {
		check(nil, to)
		for _, from := range r.snaps[:i+1] {
			check(from, to)
		}
		if i > 0 {
			if _, err := v.Send(to.name, r.snaps[i-1].name); !errors.Is(err, ErrNotAncestor) {
				t.Fatalf("%s: backwards send %s→%s: %v", when, to.name, r.snaps[i-1].name, err)
			}
		}
	}
}

// TestStampsAgreeWithTableCopies drives a source volume (with and without
// dedup) and a replica fed from it through seeded schedules of write,
// delete, rewrite-the-same-name, snapshot, delete-a-middle-snapshot,
// GarbageCollect, incremental and full send→receive (a full stream
// replaces in place what the replica already holds) and a torn receive at
// every offset followed by Recover — and after every step compares both
// volumes with the reference model.
func TestStampsAgreeWithTableCopies(t *testing.T) {
	for _, dedup := range []bool{true, false} {
		for seed := int64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("dedup=%v/seed%d", dedup, seed), func(t *testing.T) {
				runReference(t, seed, 90, dedup)
			})
		}
	}
}

func runReference(t *testing.T, seed int64, steps int, dedup bool) {
	rng := rand.New(rand.NewSource(seed))
	src, err := New(Config{BlockSize: refBlock, Codec: "gzip6", Dedup: dedup})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(cfg(refBlock, "gzip6", true)) // a replica is always a dedup volume
	if err != nil {
		t.Fatal(err)
	}
	rsrc := &refVolume{live: map[string]*refObject{}}
	rdst := &refVolume{live: map[string]*refObject{}}
	clock := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	nextID := 0

	frags := make([][]byte, 5)
	for i := range frags {
		frags[i] = make([]byte, 2*refBlock)
		rng.Read(frags[i])
	}
	unique := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	mkPayload := func() []byte {
		var out []byte
		for n := 1 + rng.Intn(4); n > 0; n-- {
			switch rng.Intn(3) {
			case 0:
				out = append(out, frags[rng.Intn(len(frags))]...)
			case 1:
				out = append(out, make([]byte, refBlock*(1+rng.Intn(2)))...) // holes
			default:
				out = append(out, unique(1+rng.Intn(6000))...)
			}
		}
		return out
	}
	write := func(name string, data []byte) {
		t.Helper()
		if _, err := src.WriteObject(name, bytes.NewReader(data)); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
		rsrc.put(name, data)
	}
	remove := func(name string) {
		t.Helper()
		if err := src.DeleteObject(name); err != nil {
			t.Fatalf("delete %s: %v", name, err)
		}
		delete(rsrc.live, name)
	}
	// either picks the volume a snapshot-removal step works on.
	either := func() (*Volume, *refVolume) {
		if rng.Intn(2) == 0 {
			return src, rsrc
		}
		return dst, rdst
	}

	// replicate sends to→dst, incrementally from dst's latest snapshot when
	// src still has it, in full otherwise (or one time in three anyway, so
	// the replica's objects are replaced in place). Before the clean apply
	// the receive is torn at every offset and recovered.
	replicate := func(when string) {
		t.Helper()
		if len(rsrc.snaps) == 0 {
			return
		}
		to := rsrc.snaps[len(rsrc.snaps)-1]
		var from *refSnap
		if n := len(rdst.snaps); n > 0 && rng.Intn(3) > 0 {
			local := rdst.snaps[n-1].name
			if i := rsrc.find(local); i >= 0 {
				from = rsrc.snaps[i]
			} else if _, err := src.Send(local, to.name); !errors.Is(err, ErrNotAncestor) {
				t.Fatalf("%s: send from %s, which the source no longer has: %v", when, local, err)
			}
		}
		if from == nil { // any snapshot the replica lacks will do for a full stream
			to = rsrc.snaps[rng.Intn(len(rsrc.snaps))]
		}
		if rdst.find(to.name) >= 0 {
			return
		}
		fromName := ""
		if from != nil {
			fromName = from.name
		}
		st, err := src.Send(fromName, to.name)
		if err != nil {
			t.Fatalf("%s: send %q→%s: %v", when, fromName, to.name, err)
		}
		receive := func() error { return dst.Receive(st) }
		if rng.Intn(2) == 0 {
			ps := src.Prepare(st)
			receive = func() error { return dst.ReceivePrepared(ps) }
		}
		for off := 0; off <= st.ApplySteps(); off++ {
			dst.SetReceiveCrashPoint(off)
			if err := receive(); !errors.Is(err, ErrTorn) {
				t.Fatalf("%s: receive torn at %d returned %v", when, off, err)
			}
			checkStats(t, dst, when+" torn")
			dst.Recover()
			rdst.checkState(t, rng, dst, fmt.Sprintf("%s recovered from offset %d", when, off))
		}
		if err := receive(); err != nil {
			t.Fatalf("%s: receive %q→%s: %v", when, fromName, to.name, err)
		}
		upserts, deletes := rsrc.diff(from, to)
		for _, name := range deletes {
			delete(rdst.live, name)
		}
		for _, o := range upserts {
			rdst.put(o.name, o.data)
		}
		rdst.snapshot(to.name, to.at)
	}

	for step := 0; step < steps; step++ {
		clock = clock.Add(time.Hour)
		when := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(12); {
		case op < 3: // write
			write(fmt.Sprintf("obj%03d", nextID), mkPayload())
			nextID++
		case op < 4: // delete
			if name := anyKey(rng, rsrc.live); name != "" {
				remove(name)
			}
		case op < 5: // rewrite the same name: the same bytes, or bytes nothing else shares
			if name := anyKey(rng, rsrc.live); name != "" {
				data := rsrc.live[name].data
				if rng.Intn(2) == 0 {
					data = unique(1 + rng.Intn(3*refBlock))
				}
				remove(name)
				write(name, data)
			}
		case op < 7: // snapshot
			name := fmt.Sprintf("snap%03d", step)
			if _, err := src.Snapshot(name, clock); err != nil {
				t.Fatalf("%s snapshot: %v", when, err)
			}
			rsrc.snapshot(name, clock)
		case op < 8: // delete a snapshot, most often a middle one
			if v, r := either(); len(r.snaps) > 0 {
				i := rng.Intn(len(r.snaps))
				if err := v.DeleteSnapshot(r.snaps[i].name); err != nil {
					t.Fatalf("%s delete snapshot: %v", when, err)
				}
				r.snaps = slices.Delete(r.snaps, i, i+1)
			}
		case op < 9: // retention
			v, r := either()
			window := time.Duration(2+rng.Intn(30)) * time.Hour
			if got, want := v.GarbageCollect(clock, window), r.gc(clock, window); !slices.Equal(got, want) {
				t.Fatalf("%s: GarbageCollect destroyed %v, model %v", when, got, want)
			}
		default:
			replicate(when)
		}
		rsrc.checkState(t, rng, src, when+" source")
		rsrc.checkSends(t, src, when+" source")
		rdst.checkState(t, rng, dst, when+" replica")
		rdst.checkSends(t, dst, when+" replica")
	}

	for _, v := range []*Volume{src, dst} {
		for _, name := range v.Objects() {
			if err := v.DeleteObject(name); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range v.Snapshots() {
			if err := v.DeleteSnapshot(s.Name); err != nil {
				t.Fatal(err)
			}
		}
		checkEmptied(t, v)
	}
}
