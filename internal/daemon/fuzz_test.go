package daemon

import (
	"bytes"
	"context"
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

// codec is one frame type's request codec with the args' type erased, as
// its ctlplane.Op declares it.
type codec struct {
	typ      uint8
	bodyless bool // the request is ctlplane.None
	decode   func([]byte) (any, error)
	encode   func(any) ([]byte, error)
}

func codecOf[Req, Resp any](op ctlplane.Op[Req, Resp]) codec {
	_, bodyless := any(*new(Req)).(ctlplane.None)
	return codec{
		typ:      op.Type,
		bodyless: bodyless,
		decode:   func(b []byte) (any, error) { return op.DecodeReq(b) },
		encode:   func(args any) ([]byte, error) { return op.AppendReq(nil, args.(Req)) },
	}
}

// codecs holds every frame type's request codec, TWatch's included
// (handle serves every type but TWatch).
var codecs = map[uint8]codec{}

func init() {
	for _, c := range []codec{
		codecOf(ctlplane.OpInfo), codecOf(ctlplane.OpRegister), codecOf(ctlplane.OpBoot),
		codecOf(ctlplane.OpSync), codecOf(ctlplane.OpHealth), codecOf(ctlplane.OpTelemetry),
		codecOf(ctlplane.OpPeers), codecOf(ctlplane.OpStats), codecOf(ctlplane.OpSetOnline),
		codecOf(ctlplane.OpDropReplica), codecOf(ctlplane.OpCrash), codecOf(ctlplane.OpRestart),
		codecOf(ctlplane.OpRot), codecOf(ctlplane.OpSetFaults), codecOf(ctlplane.OpScrubAll),
		codecOf(ctlplane.OpResilverAll), codecOf(ctlplane.OpGC), codecOf(ctlplane.OpNetReset),
		codecOf(ctlplane.OpNetRx), codecOf(ctlplane.OpWatch), codecOf(ctlplane.OpTraceTree),
		codecOf(ctlplane.OpWorkload),
	} {
		codecs[c.typ] = c
	}
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
	for typ, c := range codecs {
		switch {
		case c.bodyless:
			f.Add(typ, []byte(nil))
			continue
		case typ == wireproto.TWatch:
			continue // served by serveWatch, not handle; seeded below
		}
		var args any = core.BootRequest{Image: "im0", Node: "node01", Verify: true}
		if typ != wireproto.TBoot {
			args, _ = c.decode([]byte(fields))
		}
		body, _ := c.encode(args)
		f.Add(typ, body)
		f.Add(typ, body[:len(body)/2])
	}
	f.Add(wireproto.TBoot, []byte("\x03\x00im0\x06\x00node01\x80")) // an unknown flag bit
	f.Add(wireproto.TRegister, []byte(`{"Image":"im0","At":"yesterday"}`))
	f.Add(wireproto.TWatch, []byte(`{"Every":1000000,"Count":1}`)) // serveWatch's, not handle's
	f.Add(uint8(200), []byte(`{}`))

	tel := obs.New(0)
	f.Fuzz(func(t *testing.T, typ uint8, body []byte) {
		s := &stub{}
		_, err := New(s, Config{Tel: tel}).handle(context.Background(), typ, body)
		c, served := codecs[typ]
		served = served && typ != wireproto.TWatch
		if served && c.bodyless {
			if err != nil {
				t.Fatalf("bodyless type %d: %v", typ, err)
			}
			return
		}
		var want any
		derr := errBadRequest // an unknown type
		if served {
			want, derr = c.decode(body)
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
		enc, _ := c.encode(want)
		again, err := c.decode(enc)
		if enc2, _ := c.encode(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("type %d: re-encode is not canonical: %q then %q (%v)", typ, enc, enc2, err)
		}
		if typ != wireproto.TTraceTree && !reflect.DeepEqual(s.got, want) {
			t.Fatalf("type %d: session got %+v, body decodes to %+v", typ, s.got, want)
		}
	})
}
