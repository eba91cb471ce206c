package ctlplane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wireproto"
	"repro/internal/workload"
)

// TestSentinelsSurviveTheCodeTable round-trips every sentinel the
// control plane carries through CodeFor → ErrFromCode: the rebuilt
// error keeps the server's message and the errors.Is identity of the
// sentinel it left as, and of no other.
func TestSentinelsSurviveTheCodeTable(t *testing.T) {
	sentinels := []error{
		core.ErrUnknownImage, core.ErrUnknownNode, core.ErrNodeOffline,
		core.ErrOverloaded, core.ErrRegistered, core.ErrPartitioned,
		context.DeadlineExceeded, context.Canceled, ErrDraining,
	}
	if len(sentinels) != len(codes) {
		t.Fatalf("test lists %d sentinels, the code table %d", len(sentinels), len(codes))
	}
	seen := map[uint16]bool{}
	for _, sentinel := range sentinels {
		wrapped := fmt.Errorf("boot img on node03: %w", sentinel)
		code := CodeFor(wrapped)
		if code == wireproto.CodeOK || code == wireproto.CodeGeneric || seen[code] {
			t.Fatalf("%v: code %d is generic or already taken", sentinel, code)
		}
		seen[code] = true
		back := ErrFromCode(code, wrapped.Error())
		if back.Error() != wrapped.Error() {
			t.Errorf("%v: message %q, want %q", sentinel, back, wrapped)
		}
		for _, other := range sentinels {
			if got, want := errors.Is(back, other), other == sentinel; got != want {
				t.Errorf("code %d: errors.Is(%v) = %v, want %v", code, other, got, want)
			}
		}
	}
}

// TestUnknownCodesStayGeneric: an error outside the family crosses as
// CodeGeneric, and a code this build does not know (or CodeGeneric
// itself) rebuilds as a plain error carrying the message and no
// sentinel identity.
func TestUnknownCodesStayGeneric(t *testing.T) {
	if code := CodeFor(errors.New("disk on fire")); code != wireproto.CodeGeneric {
		t.Fatalf("CodeFor(plain) = %d, want CodeGeneric", code)
	}
	for _, code := range []uint16{wireproto.CodeGeneric, wireproto.CodeBadRequest, 999} {
		err := ErrFromCode(code, "disk on fire")
		if err.Error() != "disk on fire" || errors.Unwrap(err) != nil {
			t.Errorf("code %d rebuilt as %#v, want a bare message", code, err)
		}
	}
	if err := ErrFromCode(999, ""); err.Error() != "squirreld error (code 999)" {
		t.Errorf("empty message rebuilt as %q", err)
	}
}

// TestMessagesRoundTripJSON pushes a fully populated value of every
// JSON wire body through encoding/json, the codec both ends use: nothing
// may be lost or renamed on the way. The binary bodies have their own
// Test*CarriesEveryField.
func TestMessagesRoundTripJSON(t *testing.T) {
	at := time.Date(2014, 6, 23, 9, 30, 0, 0, time.UTC)
	msgs := []any{
		&TelemetryDump{JSON: "{}", Prometheus: "squirrel_x 1\n"},
		&RegisterArgs{Image: "debian-r01", At: at},
		&NodeArgs{Node: "node01"},
		&NodeAtArgs{Node: "node01", At: at},
		&OnlineArgs{Node: "node01", Up: true},
		&DropArgs{Node: "node01", Image: "debian-r01"},
		&AtArgs{At: at},
		&PeersReply{Counters: "peer.hit=1\n"},
		&RotReply{Blocks: 7},
		&CountReply{N: 3},
		&WatchArgs{Every: 250 * time.Millisecond, Count: 4},
		&WatchUpdate{
			Seq: 2, SpansRecorded: 91,
			Ops:         []WatchOp{{Kind: "boot", Count: 8, Delta: 3, Errors: 1, P50Ms: 0.5, P99Ms: 2.25}},
			Counters:    map[string]int64{"peer.hit": 5},
			GossipRound: 12, GossipStale: 1,
		},
		&TraceTreeArgs{TraceID: 1<<63 + 5},
		&TraceTreeReply{Trees: []*obs.TreeDump{{
			ID: 9, Kind: "rpc.dispatch", Start: 10, End: 20, RemoteTrace: 1, RemoteParent: 2,
			Annots:   map[string]int64{"op.boot": 1},
			Children: []*obs.TreeDump{{ID: 10, Kind: "boot", Node: "node01", Image: "a", Bytes: 4096, SimSec: 0.25, Err: "x"}},
		}}},
		&workload.Config{
			Arrivals: "flash", Seed: 42, Boots: 1000, Images: []string{"a"}, Nodes: []string{"node00"},
			Tenants: 8, ZipfS: 1.2, ColdFrac: 0.05, Slots: 2, DeviceMs: 400, ShedMs: 2000, HorizonSec: 3600,
		},
	}
	for _, in := range msgs {
		v := reflect.ValueOf(in).Elem()
		typ := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Errorf("%s.%s left zero: the round trip would not cover it", typ.Name(), typ.Field(i).Name)
			}
		}
		enc, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("%s: %v", typ.Name(), err)
		}
		out := reflect.New(typ).Interface()
		if err := json.Unmarshal(enc, out); err != nil {
			t.Fatalf("%s: %v", typ.Name(), err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%s changed across JSON:\n  in:  %+v\n  out: %+v\n  enc: %s", typ.Name(), in, out, enc)
		}
	}
}

// TestRingSizeNeedsTraced pins what `squirreld -obs-ring` promises: a
// ring size alone turns nothing on, and with Traced it is the number of
// completed root operations the ring holds.
func TestRingSizeNeedsTraced(t *testing.T) {
	const ring = 3
	l, err := NewLocal(Options{Images: 2, Nodes: 2, ObsRingSize: ring})
	if err != nil {
		t.Fatal(err)
	}
	if tel := l.Squirrel().Telemetry(); tel != nil {
		t.Fatalf("ObsRingSize without Traced built a Telemetry holding %d roots", len(tel.Trees()))
	}
	l, err = NewLocal(Options{Images: 2, Nodes: 2, ObsRingSize: ring, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	info, err := l.Info()
	if err != nil {
		t.Fatal(err)
	}
	for k, im := range info.Images {
		if _, err := l.Register(context.Background(), im, time.Unix(int64(k), 0)); err != nil {
			t.Fatal(err)
		}
		for _, n := range info.ComputeNodes {
			if _, err := l.Boot(context.Background(), core.BootRequest{Image: im, Node: n}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ops := len(info.Images) * (1 + len(info.ComputeNodes))
	if got := len(l.Squirrel().Telemetry().Trees()); got != ring || ops <= ring {
		t.Fatalf("ring holds %d roots after %d operations, want %d", got, ops, ring)
	}
}
