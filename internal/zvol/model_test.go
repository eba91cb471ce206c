package zvol

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestModelBasedLifecycle drives a volume with random operation sequences
// against a shadow model (plain maps), checking after every step that
// object content, snapshot content, and accounting invariants agree.
func TestModelBasedLifecycle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runModel(t, seed, 120, true)
		})
	}
}

// TestModelBasedLifecycleNoDedup is the same model on a volume without a
// DDT, where every pointer owns its block and only the objects' holder
// counts keep a snapshotted block alive.
func TestModelBasedLifecycleNoDedup(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runModel(t, seed, 120, false)
		})
	}
}

// heldReferences counts the nonzero block pointers of the distinct
// objects v still holds — in the live table or any snapshot.
func heldReferences(v *Volume) int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	held := map[*Object]bool{}
	for _, o := range v.objects {
		held[o] = true
	}
	for _, s := range v.snaps {
		for _, o := range s.objects {
			held[o] = true
		}
	}
	var n int64
	for o := range held {
		for _, p := range o.ptrs {
			if !p.zero {
				n++
			}
		}
	}
	return n
}

func runModel(t *testing.T, seed int64, steps int, dedup bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v, err := New(Config{BlockSize: 4096, Codec: "gzip6", Dedup: dedup, MinCompressGain: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	live := map[string][]byte{}             // shadow live objects
	snaps := map[string]map[string][]byte{} // shadow snapshots
	var snapOrder []string
	clock := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	nextID := 0

	// A small pool of reusable payload fragments makes dedup happen.
	frags := make([][]byte, 6)
	for i := range frags {
		frags[i] = make([]byte, 8192)
		rng.Read(frags[i])
	}
	mkPayload := func() []byte {
		var out []byte
		for n := 1 + rng.Intn(6); n > 0; n-- {
			switch rng.Intn(3) {
			case 0:
				out = append(out, frags[rng.Intn(len(frags))]...)
			case 1:
				out = append(out, make([]byte, 4096*(1+rng.Intn(3)))...) // holes
			default:
				b := make([]byte, 1+rng.Intn(9000))
				rng.Read(b)
				out = append(out, b...)
			}
		}
		return out
	}

	for step := 0; step < steps; step++ {
		clock = clock.Add(time.Hour)
		switch op := rng.Intn(10); {
		case op < 4: // write
			name := fmt.Sprintf("obj%03d", nextID)
			nextID++
			data := mkPayload()
			if _, err := v.WriteObject(name, bytes.NewReader(data)); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			live[name] = data
		case op < 6: // delete
			if name := anyKey(rng, live); name != "" {
				if err := v.DeleteObject(name); err != nil {
					t.Fatalf("step %d delete: %v", step, err)
				}
				delete(live, name)
			}
		case op < 8: // snapshot
			name := fmt.Sprintf("snap%03d", step)
			if _, err := v.Snapshot(name, clock); err != nil {
				t.Fatalf("step %d snapshot: %v", step, err)
			}
			cp := map[string][]byte{}
			for k, d := range live {
				cp[k] = d
			}
			snaps[name] = cp
			snapOrder = append(snapOrder, name)
		default: // delete a random snapshot
			if len(snapOrder) > 0 {
				i := rng.Intn(len(snapOrder))
				name := snapOrder[i]
				snapOrder = append(snapOrder[:i], snapOrder[i+1:]...)
				if err := v.DeleteSnapshot(name); err != nil {
					t.Fatalf("step %d delsnap: %v", step, err)
				}
				delete(snaps, name)
			}
		}

		// Check a random live object and a random snapshot object.
		if name := anyKey(rng, live); name != "" {
			got, err := v.ReadObject(name)
			if err != nil || !bytes.Equal(got, live[name]) {
				t.Fatalf("step %d: live %s diverged (err %v)", step, name, err)
			}
		}
		// readAt: a random range of a random live object.
		if name := anyKey(rng, live); name != "" {
			want := live[name]
			off := rng.Intn(len(want) + 1)
			p := make([]byte, rng.Intn(len(want)-off+1))
			if err := v.ReadAt(name, p, int64(off)); err != nil || !bytes.Equal(p, want[off:off+len(p)]) {
				t.Fatalf("step %d: range [%d,+%d) of %s diverged (err %v)", step, off, len(p), name, err)
			}
		}
		if len(snapOrder) > 0 {
			sn := snapOrder[rng.Intn(len(snapOrder))]
			if name := anyKey(rng, snaps[sn]); name != "" {
				got, err := v.ReadObjectAt(sn, name)
				if err != nil || !bytes.Equal(got, snaps[sn][name]) {
					t.Fatalf("step %d: snapshot %s/%s diverged (err %v)", step, sn, name, err)
				}
			}
		}
		// Accounting invariants: the running totals equal the walk, and the
		// walk equals the model.
		checkStats(t, v, fmt.Sprintf("step %d", step))
		st := v.Stats()
		var logical int64
		for _, d := range live {
			logical += int64(len(d))
		}
		if st.LogicalBytes != logical {
			t.Fatalf("step %d: logical %d, model %d", step, st.LogicalBytes, logical)
		}
		if st.Objects != int64(len(live)) || st.Snapshots != int64(len(snapOrder)) {
			t.Fatalf("step %d: objects/snapshots drifted: %+v", step, st)
		}
		// Every held object references its blocks exactly once, however
		// many tables list it.
		if want := heldReferences(v); st.References != want {
			t.Fatalf("step %d: %d block references, held objects have %d nonzero pointers", step, st.References, want)
		}
	}

	// Teardown: deleting everything frees all storage.
	for name := range live {
		if err := v.DeleteObject(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range snapOrder {
		if err := v.DeleteSnapshot(name); err != nil {
			t.Fatal(err)
		}
	}
	checkEmptied(t, v)
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
