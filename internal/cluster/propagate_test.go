package cluster

import (
	"bytes"
	"testing"

	"repro/internal/fault"
)

func testCluster(t *testing.T, compute int) *Cluster {
	t.Helper()
	c, err := New(GigE, 2, compute)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMulticastStreamCleanMatchesMulticast(t *testing.T) {
	c := testCluster(t, 3)
	wire := bytes.Repeat([]byte{1}, 1000)
	deliv, sec := c.MulticastStream("op", c.Storage[0], c.Compute, wire, nil)
	if len(deliv) != 3 {
		t.Fatalf("%d deliveries", len(deliv))
	}
	for _, d := range deliv {
		if d.Fault != fault.None || d.Wire != nil || d.Arrived != int64(len(wire)) {
			t.Fatalf("clean delivery mangled: %+v", d.Fault)
		}
		if d.Node.RxBytes() != 1000 {
			t.Fatalf("rx %d", d.Node.RxBytes())
		}
	}
	if c.Storage[0].TxBytes() != 1000 {
		t.Fatalf("multicast source sent %d", c.Storage[0].TxBytes())
	}
	if want := GigE.TransferSec(1000); sec != want {
		t.Fatalf("sec %v want %v", sec, want)
	}
}

func TestUnicastStreamSerializesOnUplink(t *testing.T) {
	c := testCluster(t, 4)
	wire := bytes.Repeat([]byte{1}, 500)
	_, sec := c.UnicastStream("op", c.Storage[0], c.Compute, StreamOf(wire), nil)
	if c.Storage[0].TxBytes() != 2000 {
		t.Fatalf("fanout source sent %d, want 4 copies", c.Storage[0].TxBytes())
	}
	if want := GigE.TransferSec(2000); sec != want {
		t.Fatalf("sec %v want %v", sec, want)
	}
}

func TestPipelineStreamForwards(t *testing.T) {
	c := testCluster(t, 3)
	wire := bytes.Repeat([]byte{1}, 700)
	c.PipelineStream("op", c.Storage[0], c.Compute, StreamOf(wire), nil)
	// Every non-last chain member retransmits.
	if c.Compute[0].TxBytes() != 700 || c.Compute[1].TxBytes() != 700 {
		t.Fatal("pipeline members must forward")
	}
	if c.Compute[2].TxBytes() != 0 {
		t.Fatal("chain tail must not forward")
	}
}

func TestStreamsUnderTotalLoss(t *testing.T) {
	inj, err := fault.New(fault.Plan{Seed: 1, Drop: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, 3)
	wire := bytes.Repeat([]byte{1}, 1000)
	deliv, _ := c.MulticastStream("op", c.Storage[0], c.Compute, wire, inj)
	for _, d := range deliv {
		if d.Fault != fault.Drop || d.Wire != nil || d.Arrived != 0 {
			t.Fatalf("delivery under total loss: %+v", d.Fault)
		}
		if d.Node.RxBytes() != 0 {
			t.Fatalf("dropped destination accounted %d rx bytes", d.Node.RxBytes())
		}
	}
	// The source still transmitted the stream once.
	if c.Storage[0].TxBytes() != 1000 {
		t.Fatalf("source tx %d", c.Storage[0].TxBytes())
	}
}

func TestTruncatedDeliveryAccountsPartialBytes(t *testing.T) {
	inj, err := fault.New(fault.Plan{Seed: 2, Truncate: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, 1)
	wire := bytes.Repeat([]byte{1}, 1000)
	deliv, _ := c.MulticastStream("op", c.Storage[0], c.Compute, wire, inj)
	d := deliv[0]
	if d.Fault != fault.Truncate || len(d.Wire) >= len(wire) {
		t.Fatalf("want truncation, got %v len %d", d.Fault, len(d.Wire))
	}
	if d.Node.RxBytes() != int64(len(d.Wire)) || d.Arrived != int64(len(d.Wire)) {
		t.Fatalf("rx %d != delivered %d", d.Node.RxBytes(), len(d.Wire))
	}
}

func TestUnicastPointToPoint(t *testing.T) {
	c := testCluster(t, 1)
	sec := c.Unicast(c.Storage[0], c.Compute[0], 300)
	if c.Storage[0].TxBytes() != 300 || c.Compute[0].RxBytes() != 300 {
		t.Fatal("unicast accounting")
	}
	if want := GigE.TransferSec(300); sec != want {
		t.Fatalf("sec %v want %v", sec, want)
	}
}

func TestOnlyADamagedDeliveryReadsTheStreamsBytes(t *testing.T) {
	// A stream's bytes are asked for by a Truncate or Corrupt verdict
	// alone: a clean, dropped or crashed delivery — or one across a cut —
	// charges the stream's size and never calls Bytes.
	wire := bytes.Repeat([]byte{7}, 2048)
	for _, tc := range []struct {
		plan  fault.Plan
		reads bool
	}{
		{fault.Plan{Seed: 1}, false},
		{fault.Plan{Seed: 1, Drop: 1}, false},
		{fault.Plan{Seed: 1, Crash: 1, MaxCrashes: 8}, false},
		{fault.Plan{Seed: 1, Torn: 1, MaxCrashes: 8}, false},
		{fault.Plan{Seed: 1, Truncate: 1}, true},
		{fault.Plan{Seed: 1, Corrupt: 1}, true},
	} {
		inj, err := fault.New(tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		c := testCluster(t, 3)
		c.Partition([]string{"node02"})
		reads := 0
		st := Stream{Size: int64(len(wire)), Bytes: func() []byte { reads++; return wire }}
		for _, scheme := range []func(string, *Node, []*Node, Stream, *fault.Injector) ([]Delivery, float64){
			c.Multicast, c.UnicastStream, c.PipelineStream,
		} {
			deliv, _ := scheme("op", c.Storage[0], c.Compute, st, inj)
			for _, d := range deliv {
				if damaged := d.Fault.Damages(); damaged != (d.Wire != nil) {
					t.Fatalf("plan %+v: %s delivery carries %d bytes", tc.plan, d.Fault, len(d.Wire))
				}
			}
		}
		want := 0
		if tc.reads {
			want = 6
		}
		if reads != want {
			t.Fatalf("plan %+v: Bytes called %d times, want %d (two reachable legs, three schemes)", tc.plan, reads, want)
		}
	}
}
