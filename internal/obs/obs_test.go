package obs

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
	if DumpTree(sp) != nil {
		t.Fatal("nil span must dump to nil")
	}
	if trees := tel.Trees(); len(trees) != 0 {
		t.Fatal("nil telemetry must have no trees")
	}
	if tree, op := Slowest(tel.Trees(), OpBoot); tree != nil || op != nil {
		t.Fatal("Slowest over no trees must be nil")
	}
	snap := tel.Snapshot()
	if len(snap.Ops) != 0 || snap.SpansRecorded != 0 {
		t.Fatal("nil telemetry snapshot must be empty")
	}
	if snap.JSON() == "" || snap.Prometheus() == "" {
		t.Fatal("empty snapshot must still render")
	}
	if RenderDump(nil) != "" {
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

	trees := tel.Trees()
	if len(trees) != 2 {
		t.Fatalf("trees %d want 2", len(trees))
	}
	if trees[0].Kind != OpBoot || trees[1].Kind != OpScrub {
		t.Fatalf("tree order %q %q", trees[0].Kind, trees[1].Kind)
	}
	if got := trees[0].Children[0]; got.Kind != OpPeerFetch || got.Node != "node02" || got.Bytes != 4096 {
		t.Fatalf("peerFetch child wrong: %+v", got)
	}
	if trees[0].Children[0].Annots["attempts"] != 2 {
		t.Fatal("annotation lost")
	}
	if trees[0].Err != "" || trees[1].Err != "corrupt block" {
		t.Fatalf("root errors %q %q", trees[0].Err, trees[1].Err)
	}
	if _, op := Slowest(trees, OpScrub); op == nil || op.Err == "" {
		t.Fatal("Slowest must prefer the failed op")
	}
	if tree, op := Slowest(trees, OpBoot); tree != trees[0] || op != trees[0] {
		t.Fatal("Slowest(boot) must find the boot root")
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

	tree := RenderDump(trees[0])
	for _, want := range []string{"boot node=node01", "  peerFetch node=node02", "attempts=2", "  pfsRead"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	if !strings.Contains(RenderDump(trees[1]), `ERR="corrupt block"`) {
		t.Fatalf("tree missing error:\n%s", RenderDump(trees[1]))
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
	if d := DumpTree(root); len(d.Children) != 1 || d.Children[0].Kind != OpScrub {
		t.Fatal("Op must nest under parent")
	}
	lone := tr.Op(nil, OpScrub, "node01", "")
	lone.Finish()
	if trees := tel.Trees(); len(trees) != 3 || trees[2].Kind != OpScrub {
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
	trees := tel.Trees()
	if len(trees) != 4 {
		t.Fatalf("ring holds %d want 4", len(trees))
	}
	// Oldest-first: the survivors are the last four appended.
	for i, d := range trees {
		want := fmt.Sprintf("node%02d", 6+i)
		if d.Node != want {
			t.Fatalf("slot %d node %q want %q", i, d.Node, want)
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
// while another hammers Snapshot/Prometheus/Trees and dumps roots still
// in flight. The race detector is the oracle, and every dumped node that
// has finished must carry its final byte count: a dump copies each node
// under one lock, so it never pairs an end time with earlier bytes.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	const workers = 4
	tel := New(64)
	tr := tel.Tracer()
	var live [workers]atomic.Pointer[Span]
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
			trees := tel.Trees()
			for w := range live {
				trees = append(trees, DumpTree(live[w].Load()))
			}
			for _, d := range trees {
				_ = RenderDump(d)
				d.Find(func(x *TreeDump) bool {
					if x.End != 0 && x.Bytes != 4096 {
						t.Errorf("finished %s dumped with %d bytes, want 4096", x.Kind, x.Bytes)
					}
					return false
				})
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartOp(OpBoot, fmt.Sprintf("node%02d", w), "img")
				live[w].Store(sp)
				c := sp.Child(OpPeerFetch, "", "img")
				runtime.Gosched() // let the reader dump c before its bytes land
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
	wg.Wait()
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
