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
	"repro/internal/peer"
	"repro/internal/zvol"
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
	case f.Type() == timeType:
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

var timeType = reflect.TypeOf(time.Time{})

func roundTrip[T any](t *testing.T, name string, in T, enc func([]byte, T) ([]byte, error), dec func([]byte) (T, error)) {
	t.Helper()
	body, err := enc(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := dec(body); err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("%s changed across its body:\n  in:  %+v\n  out: %+v (%v)", name, in, got, err)
	}
}

// Every exported field of core.BootRequest and core.BootReport crosses a
// TBoot body. A field added to either struct without a codec change
// comes back zero and fails here; JSON bodies carried new fields for
// free, the binary ones do not.
func TestBootBodiesCarryEveryField(t *testing.T) {
	var req core.BootRequest
	fillDistinct(t, &req, 0)
	roundTrip(t, "BootRequest", req, AppendBootRequest, DecodeBootRequest)
	var rep core.BootReport
	fillDistinct(t, &rep, 0)
	roundTrip(t, "BootReport", rep, AppendBootReport, DecodeBootReport)
}

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

// Every exported field of Info crosses the TInfo reply, each list with
// two entries; empty lists come back empty, not nil, as Local returns
// them.
func TestInfoBodyCarriesEveryField(t *testing.T) {
	var info Info
	fillDistinct(t, &info, 0)
	roundTrip(t, "Info", info, AppendInfoReply, DecodeInfoReply)
	roundTrip(t, "an empty Info", Info{Images: []string{}, ComputeNodes: []string{}}, AppendInfoReply, DecodeInfoReply)
}

// Every exported field of core.DeploymentStats crosses the TStats reply,
// the nested zvol.Stats and both PeerLoads rows included. A field added
// to any of the three structs without a codec change comes back zero and
// fails here. A deployment whose peers never served reports an empty,
// non-nil PeerLoads, and gets one back.
func TestStatsBodyCarriesEveryField(t *testing.T) {
	var st core.DeploymentStats
	fillDistinct(t, &st, 0)
	roundTrip(t, "DeploymentStats", st, AppendStatsReply, DecodeStatsReply)
	roundTrip(t, "stats without peer loads", core.DeploymentStats{PeerLoads: []peer.NodeLoad{}}, AppendStatsReply, DecodeStatsReply)
}

// The TNetRx reply is one i64, all of whose bits cross.
func TestNetRxBody(t *testing.T) {
	for _, n := range []int64{0, 1 << 33, -1} {
		roundTrip(t, fmt.Sprint(n), n, AppendNetRxReply, DecodeNetRxReply)
	}
	body, _ := AppendNetRxReply(nil, 7)
	for _, bad := range [][]byte{body[:7], append(bytes.Clone(body), 0)} {
		refuses(t, "netrx reply", fmt.Sprintf("%d-byte body", len(bad)), bad,
			func(b []byte) error { _, err := DecodeNetRxReply(b); return err })
	}
}

// An encoder sizes its body before it writes it, so appending a body to
// nil allocates exactly once.
func TestEncodersAllocateOnce(t *testing.T) {
	req, rep := bootRequestSample(), bootReportSample()
	health, info, stats := healthSample(), infoSample(), statsSample()
	for _, c := range []struct {
		name   string
		encode func()
	}{
		{"boot request", func() { _, _ = AppendBootRequest(nil, req) }},
		{"boot report", func() { _, _ = AppendBootReport(nil, rep) }},
		{"health reply", func() { _, _ = AppendHealthReply(nil, health) }},
		{"info reply", func() { _, _ = AppendInfoReply(nil, info) }},
		{"stats reply", func() { _, _ = AppendStatsReply(nil, stats) }},
		{"netrx reply", func() { _, _ = AppendNetRxReply(nil, 1<<33) }},
	} {
		if got := testing.AllocsPerRun(100, c.encode); got != 1 {
			t.Errorf("encoding the %s made %.0f allocations, want 1", c.name, got)
		}
	}
}

// A decoder takes every string of a body out of one string(body)
// conversion: the boot bodies cost that conversion alone, the info reply
// that conversion and its two lists, the stats and health replies that
// conversion and their rows, however many strings they carry.
func TestReplyStringsShareOneAllocation(t *testing.T) {
	req, _ := AppendBootRequest(nil, bootRequestSample())
	rep, _ := AppendBootReport(nil, bootReportSample())
	info, _ := AppendInfoReply(nil, infoSample())
	stats, _ := AppendStatsReply(nil, statsSample())
	health, _ := AppendHealthReply(nil, healthSample())
	for _, c := range []struct {
		name   string
		decode func()
		want   float64
	}{
		{"boot request", func() { _, _ = DecodeBootRequest(req) }, 1},
		{"boot report", func() { _, _ = DecodeBootReport(rep) }, 1},
		{"info reply", func() { _, _ = DecodeInfoReply(info) }, 3},
		{"stats reply", func() { _, _ = DecodeStatsReply(stats) }, 2},
		{"health reply", func() { _, _ = DecodeHealthReply(health) }, 2},
	} {
		if got := testing.AllocsPerRun(100, c.decode); got != c.want {
			t.Errorf("decoding the %s made %.0f allocations, want %.0f", c.name, got, c.want)
		}
	}
}

func bootRequestSample() core.BootRequest {
	return core.BootRequest{Image: "im0", Node: "node01", Verify: true, SkipCache: true}
}

func bootReportSample() core.BootReport {
	return core.BootReport{
		ImageID: "im0", NodeID: "node01", PeerNode: "node02", Warm: true, Healed: true,
		NetworkBytes: 1, CacheBytes: 2, ReadBytes: 3, PeerBytes: 4,
		PeerFallbacks: 5, HedgesFired: 6, HedgesWon: 7, BreakerTrips: 8, PeerStallSec: 0.25,
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

func infoSample() Info {
	info := Info{Version: "squirrel 0.7.0 (wire protocol v5)", CacheBytes: 3 << 30}
	for i := 0; i < 32; i++ {
		info.Images = append(info.Images, fmt.Sprintf("debian-r%02d", i))
	}
	for i := 0; i < 8; i++ {
		info.ComputeNodes = append(info.ComputeNodes, fmt.Sprintf("node%02d", i))
	}
	return info
}

func statsSample() core.DeploymentStats {
	return core.DeploymentStats{
		RegisteredImages: 32, ComputeNodes: 8, OnlineNodes: 8,
		SCVolume: zvol.Stats{
			Objects: 32, Snapshots: 32, LogicalBytes: 3 << 30, ZeroBytes: 1 << 28, DataBytes: 1 << 29,
			DDTDiskBytes: 1 << 20, DDTMemBytes: 1 << 19, MetaBytes: 1 << 18, DiskBytes: 1<<29 + 1<<20 + 1<<18,
			UniqueBlocks: 8000, References: 20000, DedupRatio: 2.5,
		},
		ReplicaDiskBytes: 1 << 29, ReplicaMemBytes: 1 << 19, StaleReplicas: 1,
		PeerIndexObjects: 32, PeerIndexEntries: 256, IndexSource: "gossip", GossipRound: 12, GossipStale: 3,
		PeerLoads: []peer.NodeLoad{
			{NodeID: "node00", Active: 1, ServedReads: 40, ServedBytes: 40 << 16},
			{NodeID: "node03", ServedReads: 2, ServedBytes: 2 << 16},
		},
	}
}

// refuses checks that decode refuses b, described by what, with an error
// naming the body.
func refuses(t *testing.T, name, what string, b []byte, decode func([]byte) error) {
	t.Helper()
	if err := decode(b); !errors.Is(err, errBadBody) || !strings.Contains(err.Error(), name) {
		t.Errorf("%s: %v, want errBadBody naming the %s", what, err, name)
	}
}

// rejectMalformed checks that decode refuses what the encoder never
// writes — every truncation of body, a trailing byte, and, if countAt is
// not negative, a list whose u32 count, at countAt, promises 65 536
// entries, refused with < 16 KiB allocated — and that every error names
// the body.
func rejectMalformed(t *testing.T, name string, body []byte, countAt int, decode func([]byte) error) {
	t.Helper()
	if err := decode(body); err != nil {
		t.Fatalf("the full body does not decode: %v", err)
	}
	for n := 0; n < len(body); n++ {
		refuses(t, name, fmt.Sprintf("truncated to %d of %d bytes", n, len(body)), body[:n], decode)
	}
	refuses(t, name, "a trailing byte", append(bytes.Clone(body), 0), decode)
	if countAt < 0 {
		return
	}

	bad := bytes.Clone(body)
	binary.LittleEndian.PutUint32(bad[countAt:], 1<<16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	refuses(t, name, fmt.Sprintf("65536 entries in a %d-byte body", len(bad)), bad, decode)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("refusing an impossible list count allocated %d bytes", got)
	}
}

// The decoders refuse what the encoders never write: every truncation,
// a trailing byte, an unknown flag bit; an encoder refuses a string its
// u16 length cannot carry.
func TestBootBodiesRejectMalformed(t *testing.T) {
	req, _ := AppendBootRequest(nil, core.BootRequest{Image: "im0", Node: "node01", Verify: true})
	rep, _ := AppendBootReport(nil, core.BootReport{ImageID: "im0", NodeID: "node01", Warm: true, ReadBytes: 1 << 20})
	decodeReq := func(b []byte) error { _, err := DecodeBootRequest(b); return err }
	decodeRep := func(b []byte) error { _, err := DecodeBootReport(b); return err }
	rejectMalformed(t, "boot request", req, -1, decodeReq)
	rejectMalformed(t, "boot report", rep, -1, decodeRep)

	// The flags byte follows the strings: 2+3 + 2+6 bytes in both bodies,
	// plus the report's empty PeerNode.
	badReq := bytes.Clone(req)
	badReq[13] |= 1 << 7
	refuses(t, "boot request", "request with an unknown flag bit", badReq, decodeReq)
	badRep := bytes.Clone(rep)
	badRep[15] |= 1 << 2
	refuses(t, "boot report", "report with an unknown flag bit", badRep, decodeRep)
	if _, err := AppendBootRequest(nil, core.BootRequest{Image: strings.Repeat("x", 1<<16)}); !errors.Is(err, errBadBody) {
		t.Errorf("a 64 KiB image name encoded: %v, want errBadBody", err)
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
	decode := func(b []byte) error { _, err := DecodeHealthReply(b); return err }
	rejectMalformed(t, "health reply", body, 0, decode)

	r := rows[0]
	flagsAt := 4 + 2*4 + len(r.NodeID) + len(r.State) + len(r.Snapshot) + len(r.Breaker)
	bad := bytes.Clone(body)
	bad[flagsAt] |= 1 << 4
	refuses(t, "health reply", "an unknown flag bit", bad, decode)

	bad = bytes.Clone(body)
	binary.LittleEndian.PutUint32(bad, 3)
	refuses(t, "health reply", "one row more than the body holds", bad, decode)

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
		refuses(t, "health reply", name, append(append(b, enc...), 0), decode)
	}

	if _, err := AppendHealthReply(nil, []core.NodeStatus{{Breaker: strings.Repeat("x", 1<<16)}}); !errors.Is(err, errBadBody) || !strings.Contains(err.Error(), "health reply") {
		t.Errorf("a 64 KiB breaker state encoded: %v, want errBadBody naming the health reply", err)
	}
}

// The info decoder refuses what the encoder never writes; the encoder
// refuses a string its u16 length cannot carry.
func TestInfoBodyRejectMalformed(t *testing.T) {
	info := infoSample()
	body, err := AppendInfoReply(nil, info)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) error { _, err := DecodeInfoReply(b); return err }
	rejectMalformed(t, "info reply", body, 2+len(info.Version), decode)
	nodesAt := 2 + len(info.Version) + 4
	for _, im := range info.Images {
		nodesAt += 2 + len(im)
	}
	rejectMalformed(t, "info reply", body, nodesAt, decode)

	info.ComputeNodes[1] = strings.Repeat("x", 1<<16)
	if _, err := AppendInfoReply(nil, info); !errors.Is(err, errBadBody) || !strings.Contains(err.Error(), "info reply") {
		t.Errorf("a 64 KiB node ID encoded: %v, want errBadBody naming the info reply", err)
	}
}

// The stats decoder refuses what the encoder never writes; the encoder
// refuses a string its u16 length cannot carry.
func TestStatsBodyRejectMalformed(t *testing.T) {
	st := statsSample()
	body, err := AppendStatsReply(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	// The peer-load count follows 24 i64s and the index source.
	rejectMalformed(t, "stats reply", body, 24*8+2+len(st.IndexSource),
		func(b []byte) error { _, err := DecodeStatsReply(b); return err })

	st.PeerLoads[0].NodeID = strings.Repeat("x", 1<<16)
	if _, err := AppendStatsReply(nil, st); !errors.Is(err, errBadBody) || !strings.Contains(err.Error(), "stats reply") {
		t.Errorf("a 64 KiB node ID encoded: %v, want errBadBody naming the stats reply", err)
	}
}

// fuzzCanonical holds a decoder, which reads bytes off a socket, to no
// panic and a canonical re-encode, seeded with seed's body and its first
// half.
func fuzzCanonical[T any](f *testing.F, seed T, enc func([]byte, T) ([]byte, error), dec func([]byte) (T, error)) {
	full, err := enc(nil, seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Fuzz(func(t *testing.T, body []byte) {
		v, err := dec(body)
		if err != nil {
			return
		}
		if again, err := enc(nil, v); err != nil || !bytes.Equal(again, body) {
			t.Fatalf("%q decodes to %+v, which re-encodes to %q (%v)", body, v, again, err)
		}
	})
}

func FuzzBootRequest(f *testing.F) {
	fuzzCanonical(f, bootRequestSample(), AppendBootRequest, DecodeBootRequest)
}

func FuzzBootReport(f *testing.F) {
	fuzzCanonical(f, bootReportSample(), AppendBootReport, DecodeBootReport)
}

func FuzzHealthReply(f *testing.F) {
	fuzzCanonical(f, healthSample(), AppendHealthReply, DecodeHealthReply)
}

func FuzzInfoReply(f *testing.F) {
	fuzzCanonical(f, infoSample(), AppendInfoReply, DecodeInfoReply)
}

func FuzzStatsReply(f *testing.F) {
	fuzzCanonical(f, statsSample(), AppendStatsReply, DecodeStatsReply)
}

// BenchmarkBodies is the codec rung: one encode and one decode of each
// binary body per op, into a reused buffer as neither end does (both
// append to nil), so allocs/op are the decode's. The info sample is the
// size of BenchmarkControlRPC's (32 images, 8 nodes); the stats sample
// carries two peer-load rows.
func BenchmarkBodies(b *testing.B) {
	req := core.BootRequest{Image: "debian-r07", Node: "node03", Verify: true}
	rep := core.BootReport{ImageID: "debian-r07", NodeID: "node03", Warm: true, CacheBytes: 3 << 20, ReadBytes: 3 << 20}
	health, info, stats := healthSample(), infoSample(), statsSample()
	var netrx int64 = 1 << 33
	bodies := []struct {
		name   string
		encode func([]byte) ([]byte, error)
		decode func([]byte) error
	}{
		{"boot-request", func(d []byte) ([]byte, error) { return AppendBootRequest(d, req) },
			func(b []byte) error { _, err := DecodeBootRequest(b); return err }},
		{"boot-report", func(d []byte) ([]byte, error) { return AppendBootReport(d, rep) },
			func(b []byte) error { _, err := DecodeBootReport(b); return err }},
		{"health", func(d []byte) ([]byte, error) { return AppendHealthReply(d, health) },
			func(b []byte) error { _, err := DecodeHealthReply(b); return err }},
		{"info", func(d []byte) ([]byte, error) { return AppendInfoReply(d, info) },
			func(b []byte) error { _, err := DecodeInfoReply(b); return err }},
		{"stats", func(d []byte) ([]byte, error) { return AppendStatsReply(d, stats) },
			func(b []byte) error { _, err := DecodeStatsReply(b); return err }},
		{"netrx", func(d []byte) ([]byte, error) { return AppendNetRxReply(d, netrx) },
			func(b []byte) error { _, err := DecodeNetRxReply(b); return err }},
	}
	for _, body := range bodies {
		b.Run(body.name, func(b *testing.B) {
			buf, err := body.encode(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = body.encode(buf[:0]); err != nil {
					b.Fatal(err)
				}
				if err = body.decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
