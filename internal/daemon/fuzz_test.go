package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/wireproto"
	"repro/internal/workload"
	"repro/internal/zvol"
)

// stub answers every call handle makes with zero values and keeps the
// args the call was handed. Watch, TraceSlowest and Close are left to the
// nil embedded Session: handle never calls them.
type stub struct {
	ctlplane.Session
	got any
}

func (s *stub) rec(args any) error { s.got = args; return nil }

func (s *stub) Info() (ctlplane.Info, error)               { return ctlplane.Info{}, nil }
func (s *stub) Stats() (core.DeploymentStats, error)       { return core.DeploymentStats{}, nil }
func (s *stub) Health() ([]core.NodeStatus, error)         { return nil, nil }
func (s *stub) PeerCounters() (string, error)              { return "", nil }
func (s *stub) Telemetry() (ctlplane.TelemetryDump, error) { return ctlplane.TelemetryDump{}, nil }
func (s *stub) ResetNetCounters() error                    { return nil }
func (s *stub) ComputeRx() (int64, error)                  { return 0, nil }
func (s *stub) SetFaults(p fault.Plan) error               { return s.rec(p) }
func (s *stub) InjectRot(n string) (int, error)            { return 0, s.rec(ctlplane.NodeArgs{Node: n}) }
func (s *stub) DropReplica(n, im string) error             { return s.rec(ctlplane.DropArgs{Node: n, Image: im}) }
func (s *stub) GarbageCollect(at time.Time) (int, error)   { return 0, s.rec(ctlplane.AtArgs{At: at}) }
func (s *stub) SetOnline(n string, up bool) error {
	return s.rec(ctlplane.OnlineArgs{Node: n, Up: up})
}
func (s *stub) CrashNode(n string, at time.Time) error {
	return s.rec(ctlplane.NodeAtArgs{Node: n, At: at})
}
func (s *stub) RestartNode(n string, at time.Time) (core.RecoveryReport, error) {
	return core.RecoveryReport{}, s.rec(ctlplane.NodeAtArgs{Node: n, At: at})
}
func (s *stub) Register(_ context.Context, im string, at time.Time) (core.RegisterReport, error) {
	return core.RegisterReport{}, s.rec(ctlplane.RegisterArgs{Image: im, At: at})
}
func (s *stub) Boot(_ context.Context, req core.BootRequest) (core.BootReport, error) {
	return core.BootReport{}, s.rec(req)
}
func (s *stub) SyncNode(_ context.Context, n string) (core.SyncReport, error) {
	return core.SyncReport{}, s.rec(ctlplane.NodeArgs{Node: n})
}
func (s *stub) ScrubAll(_ context.Context, at time.Time) (map[string]zvol.ScrubReport, error) {
	return nil, s.rec(ctlplane.AtArgs{At: at})
}
func (s *stub) ResilverAll(_ context.Context, at time.Time) ([]core.ResilverReport, error) {
	return nil, s.rec(ctlplane.AtArgs{At: at})
}
func (s *stub) Workload(_ context.Context, cfg workload.Config) (workload.Summary, error) {
	return workload.Summary{}, s.rec(cfg)
}

func decodeAny[T any](body []byte) (any, error) { return decode[T](body) }

// requestArgs decodes a request body as handle does, for each frame type
// handle serves that carries args.
var requestArgs = map[uint8]func([]byte) (any, error){
	wireproto.TRegister:    decodeAny[ctlplane.RegisterArgs],
	wireproto.TBoot:        func(b []byte) (any, error) { return decodeBoot(b) },
	wireproto.TSync:        decodeAny[ctlplane.NodeArgs],
	wireproto.TSetOnline:   decodeAny[ctlplane.OnlineArgs],
	wireproto.TDropReplica: decodeAny[ctlplane.DropArgs],
	wireproto.TCrash:       decodeAny[ctlplane.NodeAtArgs],
	wireproto.TRestart:     decodeAny[ctlplane.NodeAtArgs],
	wireproto.TRot:         decodeAny[ctlplane.NodeArgs],
	wireproto.TSetFaults:   decodeAny[fault.Plan],
	wireproto.TScrubAll:    decodeAny[ctlplane.AtArgs],
	wireproto.TResilverAll: decodeAny[ctlplane.AtArgs],
	wireproto.TGC:          decodeAny[ctlplane.AtArgs],
	wireproto.TTraceTree:   decodeAny[ctlplane.TraceTreeArgs],
	wireproto.TWorkload:    decodeAny[workload.Config],
}

// encodeArgs encodes a request's args as a client does: TBoot's binary
// body, JSON for every other type.
func encodeArgs(typ uint8, args any) ([]byte, error) {
	if typ == wireproto.TBoot {
		return ctlplane.AppendBootRequest(nil, args.(core.BootRequest))
	}
	return json.Marshal(args)
}

// bodyless are the frame types handle serves without reading a body.
var bodyless = map[uint8]bool{
	wireproto.TInfo: true, wireproto.THealth: true, wireproto.TTelemetry: true, wireproto.TPeers: true,
	wireproto.TStats: true, wireproto.TNetReset: true, wireproto.TNetRx: true,
}

// FuzzHandle drives handle with arbitrary (frame type, body) pairs over a
// stub session: no panic; an unknown type or an undecodable body is
// errBadRequest, which errorFrame sends as CodeBadRequest; a decodable
// body's args re-encode canonically and reach the session unchanged.
func FuzzHandle(f *testing.F) {
	// One valid body per type, each field set from one shared object so
	// that swapped args show, then the body truncated.
	const fields = `{"Image":"im0","Node":"node01","Up":true,"At":"2014-06-23T00:00:00Z",
		"Verify":true,"TraceID":77,"Seed":7,"Drop":0.1,"Arrivals":"flash","Boots":100}`
	for typ, dec := range requestArgs {
		var args any = core.BootRequest{Image: "im0", Node: "node01", Verify: true}
		if typ != wireproto.TBoot {
			args, _ = dec([]byte(fields))
		}
		body, _ := encodeArgs(typ, args)
		f.Add(typ, body)
		f.Add(typ, body[:len(body)/2])
	}
	for typ := range bodyless {
		f.Add(typ, []byte(nil))
	}
	f.Add(wireproto.TBoot, []byte("\x03\x00im0\x06\x00node01\x80")) // an unknown flag bit
	f.Add(wireproto.TRegister, []byte(`{"Image":"im0","At":"yesterday"}`))
	f.Add(wireproto.TWatch, []byte(`{"Every":1000000,"Count":1}`)) // serveWatch's, not handle's
	f.Add(uint8(200), []byte(`{}`))

	tel := obs.New(0)
	f.Fuzz(func(t *testing.T, typ uint8, body []byte) {
		s := &stub{}
		_, err := New(s, Config{Tel: tel}).handle(context.Background(), typ, body)
		if bodyless[typ] {
			if err != nil {
				t.Fatalf("bodyless type %d: %v", typ, err)
			}
			return
		}
		var want any
		derr := errBadRequest // an unknown type
		dec := requestArgs[typ]
		if dec != nil {
			want, derr = dec(body)
		}
		if derr != nil {
			if !errors.Is(err, errBadRequest) {
				t.Fatalf("type %d, body %q: handle returned %v, want errBadRequest", typ, body, err)
			}
			if code, _, _ := wireproto.DecodeError(errorFrame(wireproto.Frame{Type: typ}, err).Payload); code != wireproto.CodeBadRequest {
				t.Fatalf("type %d: errBadRequest went out as code %d", typ, code)
			}
			return
		}
		if err != nil {
			t.Fatalf("type %d, decodable body %q: %v", typ, body, err)
		}
		// A failed encode leaves enc nil, which cannot equal enc2.
		enc, _ := encodeArgs(typ, want)
		again, err := dec(enc)
		if enc2, _ := encodeArgs(typ, again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("type %d: re-encode is not canonical: %q then %q (%v)", typ, enc, enc2, err)
		}
		if typ != wireproto.TTraceTree && !reflect.DeepEqual(s.got, want) {
			t.Fatalf("type %d: session got %+v, body decodes to %+v", typ, s.got, want)
		}
	})
}
