package ctlplane

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
	"repro/internal/zvol"
)

// side checks one body of an op against the v5 wire: a JSON body is
// json.Marshal's output byte for byte, also after a prefix already in dst;
// an empty JSON body decodes to the zero value; a None body is zero bytes,
// so a bodyless request or a no-reply op sends an empty payload, not "{}".
func side[T any](t *testing.T, name string, enc func([]byte, T) ([]byte, error), dec func([]byte) (T, error), v T) {
	t.Helper()
	var want []byte
	if _, none := any(v).(None); !none {
		var err error
		if want, err = json.Marshal(v); err != nil {
			t.Fatalf("%s: json.Marshal: %v", name, err)
		}
	}
	if got, err := enc(nil, v); err != nil || !bytes.Equal(got, want) {
		t.Errorf("%s encodes to %q (%v), want %q", name, got, err, want)
	}
	if got, err := enc([]byte("x"), v); err != nil || string(got) != "x"+string(want) {
		t.Errorf("%s appended to \"x\" is %q (%v)", name, got, err)
	}
	var zero T
	if got, err := dec(nil); err != nil || !reflect.DeepEqual(got, zero) {
		t.Errorf("%s: an empty body decodes to %+v (%v), want the zero value", name, got, err)
	}
}

// Every op's JSON and None bodies, request and reply. The binary bodies
// (the boot's, and the Info, Health, Stats and ComputeRx replies) have
// their own tests; an op whose body moves to or from JSON fails here.
func TestOpBodiesAreJSONOrEmpty(t *testing.T) {
	at := time.Date(2014, 6, 23, 0, 0, 0, 0, time.UTC)
	node := NodeArgs{Node: "node01"}
	nodeAt := NodeAtArgs{Node: "node01", At: at}
	atArgs := AtArgs{At: at}
	var n None

	side(t, "info request", OpInfo.AppendReq, OpInfo.DecodeReq, n)
	side(t, "register request", OpRegister.AppendReq, OpRegister.DecodeReq, RegisterArgs{Image: "im0", At: at})
	side(t, "register reply", OpRegister.AppendResp, OpRegister.DecodeResp, core.RegisterReport{ImageID: "im0"})
	side(t, "sync request", OpSync.AppendReq, OpSync.DecodeReq, node)
	side(t, "sync reply", OpSync.AppendResp, OpSync.DecodeResp, core.SyncReport{})
	side(t, "health request", OpHealth.AppendReq, OpHealth.DecodeReq, n)
	side(t, "telemetry request", OpTelemetry.AppendReq, OpTelemetry.DecodeReq, n)
	side(t, "telemetry reply", OpTelemetry.AppendResp, OpTelemetry.DecodeResp, TelemetryDump{JSON: "{}", Prometheus: "x 1\n"})
	side(t, "peers request", OpPeers.AppendReq, OpPeers.DecodeReq, n)
	side(t, "peers reply", OpPeers.AppendResp, OpPeers.DecodeResp, PeersReply{Counters: "hits 1"})
	side(t, "stats request", OpStats.AppendReq, OpStats.DecodeReq, n)
	side(t, "setOnline request", OpSetOnline.AppendReq, OpSetOnline.DecodeReq, OnlineArgs{Node: "node01", Up: true})
	side(t, "setOnline reply", OpSetOnline.AppendResp, OpSetOnline.DecodeResp, n)
	side(t, "dropReplica request", OpDropReplica.AppendReq, OpDropReplica.DecodeReq, DropArgs{Node: "node01", Image: "im0"})
	side(t, "dropReplica reply", OpDropReplica.AppendResp, OpDropReplica.DecodeResp, n)
	side(t, "crash request", OpCrash.AppendReq, OpCrash.DecodeReq, nodeAt)
	side(t, "crash reply", OpCrash.AppendResp, OpCrash.DecodeResp, n)
	side(t, "restart request", OpRestart.AppendReq, OpRestart.DecodeReq, nodeAt)
	side(t, "restart reply", OpRestart.AppendResp, OpRestart.DecodeResp, core.RecoveryReport{})
	side(t, "rot request", OpRot.AppendReq, OpRot.DecodeReq, node)
	side(t, "rot reply", OpRot.AppendResp, OpRot.DecodeResp, RotReply{Blocks: 3})
	side(t, "setFaults request", OpSetFaults.AppendReq, OpSetFaults.DecodeReq, fault.Plan{Seed: 7, Drop: 0.1})
	side(t, "setFaults reply", OpSetFaults.AppendResp, OpSetFaults.DecodeResp, n)
	side(t, "scrubAll request", OpScrubAll.AppendReq, OpScrubAll.DecodeReq, atArgs)
	side(t, "scrubAll reply", OpScrubAll.AppendResp, OpScrubAll.DecodeResp, map[string]zvol.ScrubReport{"node01": {}})
	side(t, "resilverAll request", OpResilverAll.AppendReq, OpResilverAll.DecodeReq, atArgs)
	side(t, "resilverAll reply", OpResilverAll.AppendResp, OpResilverAll.DecodeResp, []core.ResilverReport{{}})
	side(t, "gc request", OpGC.AppendReq, OpGC.DecodeReq, atArgs)
	side(t, "gc reply", OpGC.AppendResp, OpGC.DecodeResp, CountReply{N: 2})
	side(t, "netReset request", OpNetReset.AppendReq, OpNetReset.DecodeReq, n)
	side(t, "netReset reply", OpNetReset.AppendResp, OpNetReset.DecodeResp, n)
	side(t, "netRx request", OpNetRx.AppendReq, OpNetRx.DecodeReq, n)
	side(t, "watch request", OpWatch.AppendReq, OpWatch.DecodeReq, WatchArgs{Every: time.Second, Count: 2})
	side(t, "watch update", OpWatch.AppendResp, OpWatch.DecodeResp, WatchUpdate{Seq: 1, Counters: map[string]int64{"c": 1}})
	side(t, "traceTree request", OpTraceTree.AppendReq, OpTraceTree.DecodeReq, TraceTreeArgs{TraceID: 77})
	side(t, "traceTree reply", OpTraceTree.AppendResp, OpTraceTree.DecodeResp, TraceTreeReply{})
	side(t, "workload request", OpWorkload.AppendReq, OpWorkload.DecodeReq, workload.Config{Arrivals: "flash", Boots: 100})
	side(t, "workload reply", OpWorkload.AppendResp, OpWorkload.DecodeResp, workload.Summary{})
}
