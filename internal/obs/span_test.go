package obs

import (
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSnapshotNeverHalfMerged hammers Snapshot while spans finish
// concurrently and checks the registry invariant: a span's whole
// contribution (count, bytes, node rollup) folds in under one lock
// section, so no snapshot may ever observe a span half-applied. Every
// span below contributes exactly 1 byte, so in every coherent view
// bytes == count, per op kind and per node. The latency histogram folds
// in under the same section: each worker also records a "probe" op whose
// simulated seconds carry its wall nanoseconds, so in every coherent view
// the histogram's mean is simSec/count exactly. Run under -race this also
// exercises ring eviction against snapshot readers.
func TestSnapshotNeverHalfMerged(t *testing.T) {
	tel := New(64)
	tr := tel.Tracer()

	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := []string{"node00", "node01", "node02"}[w%3]
			for i := 0; i < perWorker; i++ {
				sp := tr.StartOp("boot", node, "im0")
				sp.AddBytes(1)
				c := sp.Child("peerFetch", node, "im0")
				c.AddBytes(1)
				c.Finish()
				sp.Finish()
				wall := int64(1 + (w*perWorker+i)*7919%100000)
				tr.reg.record("probe", "", 1, float64(wall), time.Duration(wall), false)
			}
		}(w)
	}

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := tel.Snapshot()
				for _, op := range snap.Ops {
					if op.Bytes != op.Count {
						t.Errorf("half-merged op row %s: bytes=%d count=%d", op.Kind, op.Bytes, op.Count)
					}
				}
				for _, n := range snap.Nodes {
					if n.Bytes != n.Count {
						t.Errorf("half-merged node row %s: bytes=%d count=%d", n.Node, n.Bytes, n.Count)
					}
				}
				ops, _ := tr.reg.rollups()
				if p, ok := ops["probe"]; ok && p.lat.Mean() != p.simSec/float64(p.count) {
					t.Errorf("probe histogram apart from its row: mean %v ns, row %v ns over %d ops",
						p.lat.Mean(), p.simSec/float64(p.count), p.count)
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	snap := tel.Snapshot()
	boot, ok := snap.Op("boot")
	if !ok || boot.Count != workers*perWorker {
		t.Fatalf("final boot count = %+v, want %d", boot, workers*perWorker)
	}
	fetch, _ := snap.Op("peerFetch")
	if fetch.Count != workers*perWorker {
		t.Fatalf("final peerFetch count = %d, want %d", fetch.Count, workers*perWorker)
	}
}

// TestFinishedSpanHandleSurvivesEviction pins what a caller may assume
// of a span it still holds: once finished it dumps the same forever,
// whatever the ring has evicted since. (A recycling pool broke this: the
// held boot span read kind="scrub" node="node01" once the ring wrapped.)
func TestFinishedSpanHandleSurvivesEviction(t *testing.T) {
	tel := New(2)
	tr := tel.Tracer()

	held := tr.StartOp("boot", "node00", "im0")
	held.Child("lane", "node00", "im0").Finish()
	held.Finish()
	for i := 0; i < 8; i++ {
		sp := tr.StartOp("scrub", "node01", "im1")
		sp.Child("lane", "node01", "im1").Finish()
		sp.Finish()
	}

	d := DumpTree(held)
	if d.Kind != "boot" || d.Node != "node00" {
		t.Fatalf("held span dumps as another operation: kind=%q node=%q", d.Kind, d.Node)
	}
	if len(d.Children) != 1 || d.Children[0].Kind != "lane" || d.Children[0].Node != "node00" {
		t.Fatalf("held span's children mutated: %d children", len(d.Children))
	}
}

// TestExposedTreeSurvivesWraparound is the same contract for the trees
// the ring held: evicted, they keep their values while new operations
// churn past them.
func TestExposedTreeSurvivesWraparound(t *testing.T) {
	tel := New(4)
	tr := tel.Tracer()

	for i := 0; i < 4; i++ {
		sp := tr.StartOp("boot", "node00", "im0")
		sp.AddBytes(int64(100 + i))
		sp.Child("lane", "node00", "im0").Finish()
		sp.Finish()
	}
	pinned := tel.tracer.ring.snapshot()
	if len(pinned) != 4 {
		t.Fatalf("pinned %d roots, want 4", len(pinned))
	}

	// Wrap the ring several times over.
	for i := 0; i < 40; i++ {
		sp := tr.StartOp("scrub", "node01", "im1")
		sp.Child("lane", "node01", "im1").Finish()
		sp.Finish()
	}

	for i, sp := range pinned {
		d := DumpTree(sp)
		if d.Kind != "boot" || d.Node != "node00" {
			t.Fatalf("pinned root %d mutated: kind=%q node=%q", i, d.Kind, d.Node)
		}
		if d.Bytes != int64(100+i) {
			t.Fatalf("pinned root %d bytes = %d, want %d", i, d.Bytes, 100+i)
		}
		if len(d.Children) != 1 || d.Children[0].Kind != "lane" {
			t.Fatalf("pinned root %d children mutated: %+v", i, d.Children)
		}
	}
	// The current ring must only hold the new generation.
	for _, d := range tel.Trees() {
		if d.Kind == "boot" {
			t.Fatalf("boot root still in ring after wraparound")
		}
	}
}

// TestRemoteOpsLandInRing: every remote continuation is a live root in
// the ring, and RemoteDumps returns what a 16-slot ring still holds.
func TestRemoteOpsLandInRing(t *testing.T) {
	tel := New(16)
	for i := 0; i < 20; i++ {
		sp := tel.Tracer().StartRemoteOp("rpc.dispatch", "", "", 77, uint64(i+1))
		if sp == nil {
			t.Fatalf("StartRemoteOp returned no span at call %d", i)
		}
		sp.Finish()
	}
	if got := len(tel.RemoteDumps(77)); got != 16 { // ring keeps the last 16
		t.Fatalf("RemoteDumps returned %d trees, want ring size 16", got)
	}
}

// TestDumpGraftRender drives the wire-trace merge path in-process: a
// "client" session tree and a "daemon" dispatch tree built from the
// session's wire context graft into one tree whose rendering matches
// the native renderer line format.
func TestDumpGraftRender(t *testing.T) {
	client := New(8)
	daemon := New(8)

	session := client.Tracer().StartOp(OpSession, "", "")
	rpc := session.Child(OpRPC, "", "")
	rpc.Annotate("op.boot", 1)

	// Daemon side: dispatch continues the client's (traceID, spanID).
	disp := daemon.Tracer().StartRemoteOp(OpDispatch, "", "", session.SpanID(), rpc.SpanID())
	boot := disp.Child("boot", "node03", "im0")
	boot.AddBytes(4096)
	boot.Child("lane", "node03", "im0").Finish()
	boot.Finish()
	disp.Finish()

	rpc.Finish()
	session.Finish()

	remotes := daemon.RemoteDumps(session.SpanID())
	if len(remotes) != 1 {
		t.Fatalf("RemoteDumps returned %d trees, want 1", len(remotes))
	}
	dump := DumpTree(session)
	if !dump.Graft(remotes[0]) {
		t.Fatal("Graft failed to find the client rpc span")
	}
	// Unmatched trees must stay unattached.
	stray := &TreeDump{Kind: OpDispatch, RemoteParent: 0xBAD}
	if dump.Graft(stray) {
		t.Fatal("Graft attached a tree with an unknown parent")
	}

	if d := dump.Find(func(x *TreeDump) bool { return x.Kind == "boot" }); d == nil || d.Bytes != 4096 || d.Node != "node03" {
		t.Fatalf("grafted boot not reachable: %+v", d)
	}
	rendered := RenderDump(dump)
	for _, line := range []string{OpSession, OpRPC, OpDispatch, "boot", "lane"} {
		if !strings.Contains(rendered, line) {
			t.Fatalf("merged render missing %q:\n%s", line, rendered)
		}
	}
	// Depth check: boot sits under dispatch under rpc under session.
	var depths []int
	for _, ln := range strings.Split(strings.TrimRight(rendered, "\n"), "\n") {
		depths = append(depths, (len(ln)-len(strings.TrimLeft(ln, " ")))/2)
	}
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if i >= len(depths) || depths[i] != want[i] {
			t.Fatalf("merged tree depths = %v, want %v:\n%s", depths, want, rendered)
		}
	}

	// A purely local tree renders in the same line format: depth
	// indent, kind, fields, sorted annotations.
	wallTok := regexp.MustCompile(`wall=\S+`)
	got := wallTok.ReplaceAllString(RenderDump(DumpTree(session)), "wall=X")
	if want := "ctl.session wall=X\n  rpc.call wall=X op.boot=1\n"; got != want {
		t.Fatalf("local render = %q, want %q", got, want)
	}
}

// TestSpanRecordsOnly pins that *Span is write-only: its exported
// methods are the recording API plus SpanID (the wire trace context).
// Every reader works on a TreeDump.
func TestSpanRecordsOnly(t *testing.T) {
	want := []string{"AddBytes", "AddSim", "Annotate", "Child", "Fail", "Finish", "SetNode", "SpanID"}
	typ := reflect.TypeOf(&Span{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*Span exports %v, want %v", got, want)
	}
}
