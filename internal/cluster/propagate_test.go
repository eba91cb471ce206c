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
		if d.Fault != fault.None || !bytes.Equal(d.Wire, wire) {
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
	_, sec := c.UnicastStream("op", c.Storage[0], c.Compute, wire, nil)
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
	c.PipelineStream("op", c.Storage[0], c.Compute, wire, nil)
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
		if d.Fault != fault.Drop || d.Wire != nil {
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
	if d.Node.RxBytes() != int64(len(d.Wire)) {
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
