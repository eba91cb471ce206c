package ctlplane

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

var timeType = reflect.TypeOf(time.Time{})

// sameStatuses compares health tables field by field. Times must be the
// same instant in the same zone offset: a decoded zone is an unnamed
// FixedZone (or Local, when the offsets agree), as after a JSON round
// trip, so reflect.DeepEqual would see a different *time.Location.
func sameStatuses(a, b []core.NodeStatus) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := reflect.ValueOf(a[i]), reflect.ValueOf(b[i])
		for j := 0; j < x.NumField(); j++ {
			if x.Type().Field(j).Type != timeType {
				if !reflect.DeepEqual(x.Field(j).Interface(), y.Field(j).Interface()) {
					return false
				}
				continue
			}
			tx, ty := x.Field(j).Interface().(time.Time), y.Field(j).Interface().(time.Time)
			_, ox := tx.Zone()
			_, oy := ty.Zone()
			if !tx.Equal(ty) || ox != oy || tx.IsZero() != ty.IsZero() {
				return false
			}
		}
	}
	return true
}

func roundTripHealth(t *testing.T, rows []core.NodeStatus) {
	t.Helper()
	enc, err := AppendHealthReply(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeHealthReply(enc); err != nil || !sameStatuses(got, rows) {
		t.Fatalf("health rows changed across their body:\n  in:  %+v\n  out: %+v (%v)", rows, got, err)
	}
}

// Every exported field of core.NodeStatus crosses the THealth reply. A
// field added to the struct without a codec change comes back zero and
// fails here. The second row keeps the zero times a node that was never
// scrubbed and is not down reports; then each bool travels alone, so two
// swapped flag bits show.
func TestHealthBodyCarriesEveryField(t *testing.T) {
	rows := make([]core.NodeStatus, 2)
	fillDistinct(t, &rows[0], 0)
	fillDistinct(t, &rows[1], 1)
	rows[1].LastScrub, rows[1].DownSince = time.Time{}, time.Time{}
	roundTripHealth(t, rows)

	typ := reflect.TypeOf(core.NodeStatus{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Bool {
			var st core.NodeStatus
			reflect.ValueOf(&st).Elem().Field(i).SetBool(true)
			roundTripHealth(t, []core.NodeStatus{st})
		}
	}
}

// healthSample is a two-row reply with one non-zero time: the body the
// malformed-input test cuts up and the fuzz target starts from.
func healthSample() []core.NodeStatus {
	return []core.NodeStatus{
		{NodeID: "node00", State: core.StateDown, Snapshot: "s7", Breaker: "open", Withdrawn: true,
			CorruptBlocks: 3, DownSince: time.Date(2014, 6, 23, 10, 0, 0, 5, time.FixedZone("", 3600))},
		{NodeID: "node01", State: core.StateHealthy, Online: true, ViewLeases: 12, ViewStale: 1},
	}
}

// The decoder refuses what the encoder never writes: every truncation, a
// trailing byte, an unknown flag bit, a row count the body cannot hold
// (before allocating the rows), times MarshalBinary would not write. The
// encoder refuses a string its u16 length cannot carry. Every error names
// the health reply.
func TestHealthBodyRejectMalformed(t *testing.T) {
	rows := healthSample()
	body, err := AppendHealthReply(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHealthReply(body); err != nil {
		t.Fatalf("the full body does not decode: %v", err)
	}
	refused := func(what string, b []byte) {
		t.Helper()
		if _, err := DecodeHealthReply(b); !errors.Is(err, errBadBody) || !strings.Contains(err.Error(), "health reply") {
			t.Errorf("%s: %v, want errBadBody naming the health reply", what, err)
		}
	}
	for n := 0; n < len(body); n++ {
		refused(fmt.Sprintf("truncated to %d of %d bytes", n, len(body)), body[:n])
	}
	refused("a trailing byte", append(bytes.Clone(body), 0))

	r := rows[0]
	flagsAt := 4 + 2*4 + len(r.NodeID) + len(r.State) + len(r.Snapshot) + len(r.Breaker)
	bad := bytes.Clone(body)
	bad[flagsAt] |= 1 << 4
	refused("an unknown flag bit", bad)

	bad = bytes.Clone(body)
	binary.LittleEndian.PutUint32(bad, 3)
	refused("one row more than the body holds", bad)

	binary.LittleEndian.PutUint32(bad, 1<<16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	refused(fmt.Sprintf("65536 rows in a %d-byte body", len(bad)), bad)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("refusing an impossible row count allocated %d bytes", got)
	}

	// One row of empty strings and no flags or counts leaves the two
	// time fields last: swap in times UnmarshalBinary takes and
	// MarshalBinary does not write.
	one, _ := AppendHealthReply(nil, []core.NodeStatus{{}})
	zero, _ := time.Time{}.MarshalBinary()
	v1, _ := time.Date(2014, 6, 23, 10, 0, 0, 0, time.FixedZone("", 3600)).MarshalBinary()
	v2 := append([]byte{2}, v1[1:]...)
	v2 = append(v2, 0) // a v2 encoding of a whole-minute offset
	for name, enc := range map[string][]byte{"the zero time at full length": zero, "a v2 whole-minute offset": v2} {
		b := append(bytes.Clone(one[:len(one)-2]), byte(len(enc)))
		refused(name, append(append(b, enc...), 0))
	}

	if _, err := AppendHealthReply(nil, []core.NodeStatus{{Breaker: strings.Repeat("x", 1<<16)}}); !errors.Is(err, errBadBody) || !strings.Contains(err.Error(), "health reply") {
		t.Errorf("a 64 KiB breaker state encoded: %v, want errBadBody naming the health reply", err)
	}
}

// FuzzHealthReply holds the health decoder, which reads bytes off a
// socket, to no panic and a canonical re-encode.
func FuzzHealthReply(f *testing.F) {
	full, _ := AppendHealthReply(nil, healthSample())
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Fuzz(func(t *testing.T, body []byte) {
		rows, err := DecodeHealthReply(body)
		if err != nil {
			return
		}
		if enc, err := AppendHealthReply(nil, rows); err != nil || !bytes.Equal(enc, body) {
			t.Fatalf("%q decodes to %+v, which re-encodes to %q (%v)", body, rows, enc, err)
		}
	})
}
