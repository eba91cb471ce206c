package ctlplane

import (
	"encoding/json"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wireproto"
	"repro/internal/workload"
	"repro/internal/zvol"
)

// Op is one frame type's exchange: the request and reply types and the
// codecs of their bodies. The daemon serves each frame type through its
// Op and wireclient calls through the same one, so this file is the one
// place a body's format is chosen.
//
// The boot's bodies and the monitoring poll's replies are fixed binary
// (body.go, one layout per body): the boot is the hot path, and
// Health, Info, Stats and ComputeRx are what a deployment is polled with
// all the time. A field added to one of those structs needs a codec
// change and a wireproto.Version bump, and its Test*CarriesEveryField
// fails until it has one. Every other body is JSON, so its struct can
// grow fields without a version bump; those are the rare, unmeasured
// ops'. None is the empty body.
type Op[Req, Resp any] struct {
	Type       uint8
	AppendReq  func(dst []byte, req Req) ([]byte, error)
	DecodeReq  func(body []byte) (Req, error)
	AppendResp func(dst []byte, resp Resp) ([]byte, error)
	DecodeResp func(body []byte) (Resp, error)
}

// None is a missing body: it encodes to zero bytes, so a bodyless request
// or an op with no reply sends an empty payload, and it decodes from any
// body without reading it.
type None struct{}

// The ops, one per frame type. TWatch's reply codec is each stream
// element's; the stream's final frame has an empty body. Type 18 is
// reserved (a retired trace op; type numbers are wire format).
var (
	OpInfo        = op(wireproto.TInfo, none, bin(AppendInfoReply, DecodeInfoReply))
	OpRegister    = op(wireproto.TRegister, js[RegisterArgs](), js[core.RegisterReport]())
	OpBoot        = op(wireproto.TBoot, bin(AppendBootRequest, DecodeBootRequest), bin(AppendBootReport, DecodeBootReport))
	OpSync        = op(wireproto.TSync, js[NodeArgs](), js[core.SyncReport]())
	OpHealth      = op(wireproto.THealth, none, bin(AppendHealthReply, DecodeHealthReply))
	OpTelemetry   = op(wireproto.TTelemetry, none, js[TelemetryDump]())
	OpPeers       = op(wireproto.TPeers, none, js[PeersReply]())
	OpStats       = op(wireproto.TStats, none, bin(AppendStatsReply, DecodeStatsReply))
	OpSetOnline   = op(wireproto.TSetOnline, js[OnlineArgs](), none)
	OpDropReplica = op(wireproto.TDropReplica, js[DropArgs](), none)
	OpCrash       = op(wireproto.TCrash, js[NodeAtArgs](), none)
	OpRestart     = op(wireproto.TRestart, js[NodeAtArgs](), js[core.RecoveryReport]())
	OpRot         = op(wireproto.TRot, js[NodeArgs](), js[RotReply]())
	OpSetFaults   = op(wireproto.TSetFaults, js[fault.Plan](), none)
	OpScrubAll    = op(wireproto.TScrubAll, js[AtArgs](), js[map[string]zvol.ScrubReport]())
	OpResilverAll = op(wireproto.TResilverAll, js[AtArgs](), js[[]core.ResilverReport]())
	OpGC          = op(wireproto.TGC, js[AtArgs](), js[CountReply]())
	OpNetReset    = op(wireproto.TNetReset, none, none)
	OpNetRx       = op(wireproto.TNetRx, none, bin(AppendNetRxReply, DecodeNetRxReply))
	OpWatch       = op(wireproto.TWatch, js[WatchArgs](), js[WatchUpdate]())
	OpTraceTree   = op(wireproto.TTraceTree, js[TraceTreeArgs](), js[TraceTreeReply]())
	OpWorkload    = op(wireproto.TWorkload, js[workload.Config](), js[workload.Summary]())
)

// codec is one body's encoder and decoder.
type codec[T any] struct {
	append func([]byte, T) ([]byte, error)
	decode func([]byte) (T, error)
}

// bin is a fixed binary codec.
func bin[T any](enc func([]byte, T) ([]byte, error), dec func([]byte) (T, error)) codec[T] {
	return codec[T]{enc, dec}
}

func op[Req, Resp any](t uint8, req codec[Req], resp codec[Resp]) Op[Req, Resp] {
	return Op[Req, Resp]{Type: t, AppendReq: req.append, DecodeReq: req.decode,
		AppendResp: resp.append, DecodeResp: resp.decode}
}

var none = codec[None]{
	append: func(dst []byte, _ None) ([]byte, error) { return dst, nil },
	decode: func([]byte) (None, error) { return None{}, nil },
}

// js is the JSON codec. An empty body decodes to the zero value, so a
// caller may leave a JSON body out.
func js[T any]() codec[T] {
	return codec[T]{
		append: func(dst []byte, v T) ([]byte, error) {
			b, err := json.Marshal(v)
			if len(dst) == 0 {
				return b, err // no copy into an empty dst
			}
			return append(dst, b...), err
		},
		decode: func(body []byte) (T, error) {
			var v T
			if len(body) == 0 {
				return v, nil
			}
			err := json.Unmarshal(body, &v)
			return v, err
		},
	}
}
