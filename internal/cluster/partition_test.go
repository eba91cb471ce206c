package cluster

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
)

func partCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(GigE, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestReachabilitySemantics(t *testing.T) {
	c := partCluster(t)
	if c.Unreachable("node01") || c.Unreachable("node03") {
		t.Fatal("fresh cluster reports an open cut")
	}
	if !c.Reachable("node00", "node07") || !c.Reachable("node00", "stor00") {
		t.Fatal("fully connected cluster reports unreachable pairs")
	}
	c.Partition([]string{"node01", "node03"})
	// Same side (both minority, both majority) stays connected.
	if !c.Reachable("node01", "node03") {
		t.Fatal("minority nodes cannot reach each other")
	}
	if !c.Reachable("node00", "node02") || !c.Reachable("node00", "stor00") {
		t.Fatal("majority side broke")
	}
	// Across the cut: nothing.
	if c.Reachable("node01", "node00") || c.Reachable("node03", "stor00") {
		t.Fatal("transfer crossed the open cut")
	}
	if !c.Unreachable("node01") || c.Unreachable("node00") {
		t.Fatal("Unreachable misclassifies sides")
	}
	// A node always reaches itself, cut or not.
	if !c.Reachable("node01", "node01") {
		t.Fatal("node cannot reach itself")
	}
	healed := c.Heal()
	if fmt.Sprint(healed) != "[node01 node03]" {
		t.Fatalf("Heal returned %v", healed)
	}
	if c.Unreachable("node01") || c.Unreachable("node03") || !c.Reachable("node01", "stor00") || !c.Reachable("node03", "node00") {
		t.Fatal("heal did not restore connectivity")
	}
}

func TestStreamsAcrossCutDeliverPartitionFaults(t *testing.T) {
	c := partCluster(t)
	c.Partition([]string{"node02", "node05"})
	inj, err := fault.New(fault.Plan{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]byte, 4096)
	deliv, _ := c.MulticastStream("op", c.Storage[0], c.Compute, wire, inj)
	for _, dv := range deliv {
		cutOff := dv.Node.ID == "node02" || dv.Node.ID == "node05"
		switch {
		case cutOff && dv.Fault != fault.Partition:
			t.Fatalf("%s across the cut got %v, want partition", dv.Node.ID, dv.Fault)
		case cutOff && (dv.Wire != nil || dv.Node.RxBytes() != 0):
			t.Fatalf("%s received bytes across the cut", dv.Node.ID)
		case !cutOff && (dv.Fault != fault.None || dv.Arrived != 4096):
			t.Fatalf("%s on the majority side got %v/%d bytes", dv.Node.ID, dv.Fault, dv.Arrived)
		}
	}
	if got := inj.Counters().Get("fault.partition"); got != 2 {
		t.Fatalf("fault.partition = %d, want 2", got)
	}
	// The pipeline never forwards from a cut member.
	c.ResetCounters()
	deliv, _ = c.PipelineStream("op2", c.Storage[0], c.Compute, StreamOf(wire), inj)
	for _, dv := range deliv {
		if dv.Fault == fault.Partition && dv.Node.TxBytes() != 0 {
			t.Fatalf("cut node %s forwarded downstream", dv.Node.ID)
		}
	}
}

func TestPFSReadAcrossCutFails(t *testing.T) {
	c := partCluster(t)
	pfs, err := NewPFS(c, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(b []byte, off int64) (int, error) {
		for i := range b {
			b[i] = byte(off) + byte(i)
		}
		return len(b), nil
	}
	if err := pfs.AddFile("img", 1<<20, fill); err != nil {
		t.Fatal(err)
	}
	client := c.Compute[3]
	buf := make([]byte, 64<<10)
	if _, err := pfs.ReadAt(client, "img", buf, 0); err != nil {
		t.Fatalf("connected read failed: %v", err)
	}
	c.Partition([]string{client.ID})
	rx := client.RxBytes()
	if _, err := pfs.ReadAt(client, "img", buf, 0); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cut read returned %v, want ErrUnreachable", err)
	}
	if client.RxBytes() != rx {
		t.Fatal("cut read still moved bytes")
	}
	c.Heal()
	if _, err := pfs.ReadAt(client, "img", buf, 0); err != nil {
		t.Fatalf("read after heal failed: %v", err)
	}
}
