package obs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var tel *Telemetry
	var tr *Tracer
	var sp *Span

	// Every method on every nil receiver must no-op without panicking.
	tr = tel.Tracer()
	if tr != nil {
		t.Fatal("nil telemetry must yield nil tracer")
	}
	if tel.Counters() != nil {
		t.Fatal("nil telemetry must yield nil counters")
	}
	sp = tr.StartOp(OpBoot, "node00", "img")
	if sp != nil {
		t.Fatal("nil tracer must yield nil span")
	}
	if c := tr.Op(nil, OpScrub, "node00", ""); c != nil {
		t.Fatal("nil tracer Op must yield nil span")
	}
	child := sp.Child(OpPeerFetch, "", "")
	if child != nil {
		t.Fatal("nil span must yield nil child")
	}
	sp.SetNode("x")
	sp.AddBytes(1)
	sp.AddSim(1)
	sp.Annotate("k", 1)
	sp.Fail(errors.New("boom"))
	sp.Finish()
	if sp.Kind() != "" || sp.Node() != "" || sp.Image() != "" || sp.Err() != "" {
		t.Fatal("nil span accessors must be zero")
	}
	if sp.Bytes() != 0 || sp.SimSec() != 0 || sp.Wall() != 0 || sp.Annotation("k") != 0 {
		t.Fatal("nil span accessors must be zero")
	}
	if len(sp.Children()) != 0 || len(sp.Annotations()) != 0 {
		t.Fatal("nil span collections must be empty")
	}
	if roots := tel.Roots(); len(roots) != 0 {
		t.Fatal("nil telemetry must have no roots")
	}
	if tel.SlowestSpan(OpBoot) != nil {
		t.Fatal("nil telemetry SlowestSpan must be nil")
	}
	snap := tel.Snapshot()
	if len(snap.Ops) != 0 || snap.SpansRecorded != 0 {
		t.Fatal("nil telemetry snapshot must be empty")
	}
	if snap.JSON() == "" || snap.Prometheus() == "" {
		t.Fatal("empty snapshot must still render")
	}
	if RenderTree(nil) != "" {
		t.Fatal("nil tree renders empty")
	}
}

func TestSpanTreeAndAggregation(t *testing.T) {
	tel := New(8)
	tr := tel.Tracer()

	root := tr.StartOp(OpBoot, "node01", "img-0")
	fetch := root.Child(OpPeerFetch, "", "img-0")
	fetch.SetNode("node02")
	fetch.AddBytes(4096)
	fetch.AddSim(0.25)
	fetch.Annotate("attempts", 2)
	fetch.Finish()
	pfs := root.Child(OpPFSRead, "node01", "img-0")
	pfs.AddBytes(1024)
	pfs.Finish()
	root.AddBytes(5120)
	root.Finish()

	bad := tr.StartOp(OpScrub, "node03", "")
	bad.Fail(errors.New("corrupt block"))
	bad.Finish()

	roots := tel.Roots()
	if len(roots) != 2 {
		t.Fatalf("roots %d want 2", len(roots))
	}
	if roots[0].Kind() != OpBoot || roots[1].Kind() != OpScrub {
		t.Fatalf("root order %q %q", roots[0].Kind(), roots[1].Kind())
	}
	if got := roots[0].ChildrenOf(OpPeerFetch); len(got) != 1 || got[0].Node() != "node02" || got[0].Bytes() != 4096 {
		t.Fatalf("peerFetch child wrong: %+v", got)
	}
	if roots[0].ChildrenOf(OpPeerFetch)[0].Annotation("attempts") != 2 {
		t.Fatal("annotation lost")
	}
	if fr := tel.FailedRoots(); len(fr) != 1 || fr[0].Kind() != OpScrub {
		t.Fatalf("failed roots %v", fr)
	}
	if s := tel.SlowestSpan(OpScrub); s == nil || s.Err() == "" {
		t.Fatal("SlowestSpan must prefer the failed op")
	}
	if tel.SlowestSpan(OpBoot) != roots[0] {
		t.Fatal("SlowestSpan(boot) must find the boot root")
	}

	snap := tel.Snapshot()
	boot, ok := snap.Op(OpBoot)
	if !ok || boot.Count != 1 || boot.Bytes != 5120 {
		t.Fatalf("boot summary %+v ok=%v", boot, ok)
	}
	fetchSum, ok := snap.Op(OpPeerFetch)
	if !ok || fetchSum.Count != 1 || fetchSum.Bytes != 4096 || fetchSum.SimSec != 0.25 {
		t.Fatalf("peerFetch summary %+v", fetchSum)
	}
	scrub, ok := snap.Op(OpScrub)
	if !ok || scrub.Errors != 1 {
		t.Fatalf("scrub summary %+v", scrub)
	}
	if snap.FailedOps != 1 || snap.SpansRecorded != 2 {
		t.Fatalf("snapshot bookkeeping %+v", snap)
	}
	var node02 *NodeSummary
	for i := range snap.Nodes {
		if snap.Nodes[i].Node == "node02" {
			node02 = &snap.Nodes[i]
		}
	}
	if node02 == nil || node02.Bytes != 4096 {
		t.Fatalf("node rollup missing: %+v", snap.Nodes)
	}

	tree := RenderTree(roots[0])
	for _, want := range []string{"boot node=node01", "  peerFetch node=node02", "attempts=2", "  pfsRead"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	if !strings.Contains(RenderTree(bad), `ERR="corrupt block"`) {
		t.Fatalf("tree missing error:\n%s", RenderTree(bad))
	}
}

func TestFinishIdempotentAndOpHelper(t *testing.T) {
	tel := New(4)
	tr := tel.Tracer()
	sp := tr.StartOp(OpGC, "", "")
	sp.Finish()
	sp.Finish() // must not double-record
	snap := tel.Snapshot()
	if gc, _ := snap.Op(OpGC); gc.Count != 1 {
		t.Fatalf("double finish recorded twice: %+v", gc)
	}

	// Op with a parent nests; Op without one roots.
	root := tr.StartOp(OpRestart, "node00", "")
	child := tr.Op(root, OpScrub, "node00", "")
	child.Finish()
	root.Finish()
	if len(root.ChildrenOf(OpScrub)) != 1 {
		t.Fatal("Op must nest under parent")
	}
	lone := tr.Op(nil, OpScrub, "node01", "")
	lone.Finish()
	if len(tel.RootsOf(OpScrub)) != 1 {
		t.Fatal("Op without parent must root")
	}
}

func TestRingWraparound(t *testing.T) {
	tel := New(4)
	tr := tel.Tracer()
	for i := 0; i < 10; i++ {
		sp := tr.StartOp(OpBoot, fmt.Sprintf("node%02d", i), "")
		sp.Finish()
	}
	roots := tel.Roots()
	if len(roots) != 4 {
		t.Fatalf("ring holds %d want 4", len(roots))
	}
	// Oldest-first: the survivors are the last four appended.
	for i, s := range roots {
		want := fmt.Sprintf("node%02d", 6+i)
		if s.Node() != want {
			t.Fatalf("slot %d node %q want %q", i, s.Node(), want)
		}
	}
	if got := tel.Snapshot().SpansRecorded; got != 10 {
		t.Fatalf("SpansRecorded %d want 10", got)
	}
}

func TestPrometheusAndJSON(t *testing.T) {
	tel := New(8)
	tr := tel.Tracer()
	tel.Counters().Add("peer.hit", 3)
	sp := tr.StartOp(OpRegister, "stor00", "img-1")
	sp.AddBytes(1 << 20)
	sp.AddSim(1.5)
	sp.Finish()

	snap := tel.Snapshot()
	prom := snap.Prometheus()
	for _, want := range []string{
		`squirrel_op_total{kind="register"} 1`,
		`squirrel_op_bytes_total{kind="register"} 1048576`,
		`squirrel_op_sim_seconds_total{kind="register"} 1.5`,
		`squirrel_op_latency_ms{kind="register",quantile="0.5"}`,
		`squirrel_node_ops_total{node="stor00"} 1`,
		`squirrel_counter{name="peer.hit"} 3`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus missing %q:\n%s", want, prom)
		}
	}
	js := snap.JSON()
	for _, want := range []string{`"kind": "register"`, `"bytes": 1048576`, `"peer.hit": 3`} {
		if !strings.Contains(js, want) {
			t.Fatalf("json missing %q:\n%s", want, js)
		}
	}
}

// TestConcurrentRecordAndSnapshot drives spans from many goroutines
// while another hammers Snapshot/Prometheus/Roots; the race detector is
// the oracle.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	tel := New(64)
	tr := tel.Tracer()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := tel.Snapshot()
			_ = snap.Prometheus()
			_ = snap.JSON()
			for _, r := range tel.Roots() {
				_ = RenderTree(r)
			}
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartOp(OpBoot, fmt.Sprintf("node%02d", w), "img")
				c := sp.Child(OpPeerFetch, "", "img")
				c.AddBytes(4096)
				c.Finish()
				sp.AddBytes(4096)
				if i%7 == 0 {
					sp.Fail(errors.New("synthetic"))
				}
				sp.Finish()
				tel.Counters().Add("boot.count", 1)
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	reader.Wait()
	snap := tel.Snapshot()
	boot, _ := snap.Op(OpBoot)
	if boot.Count != 800 {
		t.Fatalf("boot count %d want 800", boot.Count)
	}
	if fetch, _ := snap.Op(OpPeerFetch); fetch.Bytes != 800*4096 {
		t.Fatalf("peerFetch bytes %d", fetch.Bytes)
	}
}
