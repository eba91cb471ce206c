package ctlplane

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// fillDistinct sets every exported field of *p to a non-zero value no
// other field of it shares (bools can only be true), and fails on a field
// kind it does not know how to fill, so a new field cannot hide as zero.
// Values also differ between calls with different rows. A time carries
// nanoseconds and a zone east of UTC by a non-whole hour. A nested
// struct is filled the same way, as a row of its own; a slice gets two
// elements, each filled as a row of its own.
func fillDistinct(t *testing.T, p any, row int) {
	t.Helper()
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		n := 100*row + i + 1
		if f.Kind() == reflect.Slice {
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
			for k := 0; k < 2; k++ {
				fillValue(t, f.Index(k), sf.Name, 100*n+k)
			}
			continue
		}
		fillValue(t, f, sf.Name, n)
	}
}

// fillValue sets f, named name, to a non-zero value derived from n.
func fillValue(t *testing.T, f reflect.Value, name string, n int) {
	t.Helper()
	switch {
	case f.Type() == reflect.TypeOf(time.Time{}):
		zone := time.FixedZone("", 5*3600+30*60)
		f.Set(reflect.ValueOf(time.Date(2014, 6, 23, 9, n%60, 0, 123456789+n, zone)))
	case f.Kind() == reflect.Struct:
		fillDistinct(t, f.Addr().Interface(), n)
	case f.Kind() == reflect.String:
		f.SetString(fmt.Sprintf("%s-%d", strings.ToLower(name), n))
	case f.Kind() == reflect.Bool:
		f.SetBool(true)
	case f.Kind() == reflect.Int, f.Kind() == reflect.Int64:
		f.SetInt(int64(n)<<40 | int64(n)) // both halves of the i64 carry bits
	case f.Kind() == reflect.Float64:
		f.SetFloat(float64(n) + 0.125)
	default:
		t.Fatalf("%s: kind %s has no filler here, and no binary body encoding", name, f.Kind())
	}
}

// Every exported field of core.BootRequest and core.BootReport crosses a
// TBoot body. A field added to either struct without a codec change
// comes back zero and fails here; JSON bodies carried new fields for
// free, the binary ones do not.
func TestBootBodiesCarryEveryField(t *testing.T) {
	var req core.BootRequest
	fillDistinct(t, &req, 0)
	enc, err := AppendBootRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeBootRequest(enc); err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("BootRequest changed across its body:\n  in:  %+v\n  out: %+v (%v)", req, got, err)
	}

	var rep core.BootReport
	fillDistinct(t, &rep, 0)
	if enc, err = AppendBootReport(nil, rep); err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeBootReport(enc); err != nil || !reflect.DeepEqual(got, rep) {
		t.Fatalf("BootReport changed across its body:\n  in:  %+v\n  out: %+v (%v)", rep, got, err)
	}
}

// The decoders refuse what the encoders never write: every truncation,
// a trailing byte, an unknown flag bit; an encoder refuses a string its
// u16 length cannot carry.
func TestBootBodiesRejectMalformed(t *testing.T) {
	req, _ := AppendBootRequest(nil, core.BootRequest{Image: "im0", Node: "node01", Verify: true})
	rep, _ := AppendBootReport(nil, core.BootReport{ImageID: "im0", NodeID: "node01", Warm: true, ReadBytes: 1 << 20})
	decoders := map[string]struct {
		body   []byte
		decode func([]byte) error
	}{
		"request": {req, func(b []byte) error { _, err := DecodeBootRequest(b); return err }},
		"report":  {rep, func(b []byte) error { _, err := DecodeBootReport(b); return err }},
	}
	for name, d := range decoders {
		if err := d.decode(d.body); err != nil {
			t.Fatalf("%s: the full body does not decode: %v", name, err)
		}
		for n := 0; n < len(d.body); n++ {
			if err := d.decode(d.body[:n]); !errors.Is(err, errBadBody) || !strings.Contains(err.Error(), "boot "+name) {
				t.Errorf("%s truncated to %d of %d bytes: %v, want errBadBody naming the boot %s", name, n, len(d.body), err, name)
			}
		}
		if err := d.decode(append(bytes.Clone(d.body), 0)); !errors.Is(err, errBadBody) {
			t.Errorf("%s with a trailing byte: %v, want errBadBody", name, err)
		}
	}
	// The flags byte follows the strings: 2+3 + 2+6 bytes in both bodies,
	// plus the report's empty PeerNode.
	badReq := bytes.Clone(req)
	badReq[13] |= 1 << 7
	if _, err := DecodeBootRequest(badReq); !errors.Is(err, errBadBody) {
		t.Errorf("request with an unknown flag bit: %v, want errBadBody", err)
	}
	badRep := bytes.Clone(rep)
	badRep[15] |= 1 << 2
	if _, err := DecodeBootReport(badRep); !errors.Is(err, errBadBody) {
		t.Errorf("report with an unknown flag bit: %v, want errBadBody", err)
	}
	if _, err := AppendBootRequest(nil, core.BootRequest{Image: strings.Repeat("x", 1<<16)}); !errors.Is(err, errBadBody) {
		t.Errorf("a 64 KiB image name encoded: %v, want errBadBody", err)
	}
}

// FuzzBootRequest holds the request decoder, which reads bytes off a
// socket, to no panic and a canonical re-encode.
func FuzzBootRequest(f *testing.F) {
	full, _ := AppendBootRequest(nil, core.BootRequest{Image: "im0", Node: "node01", Verify: true, SkipCache: true})
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := DecodeBootRequest(body)
		if err != nil {
			return
		}
		if enc, err := AppendBootRequest(nil, r); err != nil || !bytes.Equal(enc, body) {
			t.Fatalf("%q decodes to %+v, which re-encodes to %q (%v)", body, r, enc, err)
		}
	})
}

// FuzzBootReport holds the report decoder, which reads bytes off a
// socket, to no panic and a canonical re-encode.
func FuzzBootReport(f *testing.F) {
	full, _ := AppendBootReport(nil, core.BootReport{
		ImageID: "im0", NodeID: "node01", PeerNode: "node02", Warm: true, Healed: true,
		NetworkBytes: 1, CacheBytes: 2, ReadBytes: 3, PeerBytes: 4,
		PeerFallbacks: 5, HedgesFired: 6, HedgesWon: 7, BreakerTrips: 8, PeerStallSec: 0.25,
	})
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := DecodeBootReport(body)
		if err != nil {
			return
		}
		if enc, err := AppendBootReport(nil, r); err != nil || !bytes.Equal(enc, body) {
			t.Fatalf("%q decodes to %+v, which re-encodes to %q (%v)", body, r, enc, err)
		}
	})
}
