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

	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/zvol"
)

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
		if got, err := DecodeNetRxReply(AppendNetRxReply(nil, n)); err != nil || got != n {
			t.Errorf("%d came back as %d (%v)", n, got, err)
		}
	}
	body := AppendNetRxReply(nil, 7)
	for _, bad := range [][]byte{body[:7], append(bytes.Clone(body), 0)} {
		if _, err := DecodeNetRxReply(bad); !errors.Is(err, errBadBody) || !strings.Contains(err.Error(), "netrx reply") {
			t.Errorf("%d-byte body: %v, want errBadBody naming the netrx reply", len(bad), err)
		}
	}
}

// A decoder takes every string of a reply out of one string(body)
// conversion: the info reply costs that conversion and its two lists,
// the stats and health replies that conversion and their rows, however
// many strings they carry.
func TestReplyStringsShareOneAllocation(t *testing.T) {
	info, _ := AppendInfoReply(nil, infoSample())
	stats, _ := AppendStatsReply(nil, statsSample())
	health, _ := AppendHealthReply(nil, healthSample())
	for _, c := range []struct {
		name   string
		decode func()
		want   float64
	}{
		{"info", func() { _, _ = DecodeInfoReply(info) }, 3},
		{"stats", func() { _, _ = DecodeStatsReply(stats) }, 2},
		{"health", func() { _, _ = DecodeHealthReply(health) }, 2},
	} {
		if got := testing.AllocsPerRun(100, c.decode); got != c.want {
			t.Errorf("decoding the %s reply made %.0f allocations, want %.0f", c.name, got, c.want)
		}
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

// rejectMalformed checks that decode refuses what the encoder never
// writes — every truncation of body, a trailing byte, and a list whose
// u32 count, at countAt, promises 65 536 entries, refused with < 16 KiB
// allocated — and that every error names the body.
func rejectMalformed(t *testing.T, name string, body []byte, countAt int, decode func([]byte) error) {
	t.Helper()
	if err := decode(body); err != nil {
		t.Fatalf("the full body does not decode: %v", err)
	}
	refused := func(what string, b []byte) {
		t.Helper()
		if err := decode(b); !errors.Is(err, errBadBody) || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: %v, want errBadBody naming the %s", what, err, name)
		}
	}
	for n := 0; n < len(body); n++ {
		refused(fmt.Sprintf("truncated to %d of %d bytes", n, len(body)), body[:n])
	}
	refused("a trailing byte", append(bytes.Clone(body), 0))

	bad := bytes.Clone(body)
	binary.LittleEndian.PutUint32(bad[countAt:], 1<<16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	refused(fmt.Sprintf("65536 entries in a %d-byte body", len(bad)), bad)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("refusing an impossible list count allocated %d bytes", got)
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
	rejectMalformed(t, "stats reply", body, statsFixed+2+len(st.IndexSource),
		func(b []byte) error { _, err := DecodeStatsReply(b); return err })

	st.PeerLoads[0].NodeID = strings.Repeat("x", 1<<16)
	if _, err := AppendStatsReply(nil, st); !errors.Is(err, errBadBody) || !strings.Contains(err.Error(), "stats reply") {
		t.Errorf("a 64 KiB node ID encoded: %v, want errBadBody naming the stats reply", err)
	}
}

// FuzzInfoReply holds the info decoder, which reads bytes off a socket,
// to no panic and a canonical re-encode.
func FuzzInfoReply(f *testing.F) {
	full, _ := AppendInfoReply(nil, infoSample())
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Fuzz(func(t *testing.T, body []byte) {
		info, err := DecodeInfoReply(body)
		if err != nil {
			return
		}
		if enc, err := AppendInfoReply(nil, info); err != nil || !bytes.Equal(enc, body) {
			t.Fatalf("%q decodes to %+v, which re-encodes to %q (%v)", body, info, enc, err)
		}
	})
}

// FuzzStatsReply holds the stats decoder, which reads bytes off a
// socket, to no panic and a canonical re-encode.
func FuzzStatsReply(f *testing.F) {
	full, _ := AppendStatsReply(nil, statsSample())
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := DecodeStatsReply(body)
		if err != nil {
			return
		}
		if enc, err := AppendStatsReply(nil, st); err != nil || !bytes.Equal(enc, body) {
			t.Fatalf("%q decodes to %+v, which re-encodes to %q (%v)", body, st, enc, err)
		}
	})
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
		{"netrx", func(d []byte) ([]byte, error) { return AppendNetRxReply(d, netrx), nil },
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
