package cluster

import (
	"io"
	"testing"
)

func mkCluster(t *testing.T, storage, compute int) *Cluster {
	t.Helper()
	c, err := New(GigE, storage, compute)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(GigE, 0, 4); err == nil {
		t.Fatal("zero storage nodes must fail")
	}
	if _, err := New(GigE, 4, 0); err == nil {
		t.Fatal("zero compute nodes must fail")
	}
}

func TestMulticastAccounting(t *testing.T) {
	c := mkCluster(t, 1, 8)
	_, sec := c.MulticastStream("op", c.Storage[0], c.Compute, make([]byte, 1000), nil)
	if c.Storage[0].TxBytes() != 1000 {
		t.Fatalf("multicast source tx %d, want 1000", c.Storage[0].TxBytes())
	}
	for _, n := range c.Compute {
		if n.RxBytes() != 1000 {
			t.Fatalf("%s rx %d", n.ID, n.RxBytes())
		}
	}
	if sec <= 0 {
		t.Fatal("no transfer time")
	}
}

func TestUnicastFanoutCostsMore(t *testing.T) {
	c := mkCluster(t, 1, 8)
	wire := make([]byte, 1<<20)
	_, mSec := c.MulticastStream("op", c.Storage[0], c.Compute, wire, nil)
	c.ResetCounters()
	_, uSec := c.UnicastStream("op", c.Storage[0], c.Compute, StreamOf(wire), nil)
	if c.Storage[0].TxBytes() != 8<<20 {
		t.Fatalf("fanout tx %d, want 8 MB", c.Storage[0].TxBytes())
	}
	if uSec <= mSec {
		t.Fatal("unicast fan-out should be slower than multicast")
	}
}

func TestPipelineAccounting(t *testing.T) {
	c := mkCluster(t, 1, 4)
	c.PipelineStream("op", c.Storage[0], c.Compute, StreamOf(make([]byte, 500)), nil)
	for i, n := range c.Compute {
		if n.RxBytes() != 500 {
			t.Fatalf("node %d rx %d", i, n.RxBytes())
		}
		wantTx := int64(500)
		if i == len(c.Compute)-1 {
			wantTx = 0
		}
		if n.TxBytes() != wantTx {
			t.Fatalf("node %d tx %d want %d", i, n.TxBytes(), wantTx)
		}
	}
}

func TestComputeRxTotalAndReset(t *testing.T) {
	c := mkCluster(t, 1, 3)
	c.MulticastStream("op", c.Storage[0], c.Compute, make([]byte, 100), nil)
	if c.ComputeRxTotal() != 300 {
		t.Fatalf("total %d", c.ComputeRxTotal())
	}
	c.ResetCounters()
	if c.ComputeRxTotal() != 0 || c.Storage[0].TxBytes() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestFabricTransferSec(t *testing.T) {
	if GigE.TransferSec(110e6) < 0.99 {
		t.Fatal("1GbE should move ~110MB/s")
	}
	if QDR.TransferSec(1e9) >= GigE.TransferSec(1e9) {
		t.Fatal("IB must be faster than GbE")
	}
}

// fillPattern produces deterministic content: byte at offset o is o%251.
func fillPattern(p []byte, off int64) (int, error) {
	for i := range p {
		p[i] = byte((off + int64(i)) % 251)
	}
	return len(p), nil
}

func TestPFSValidation(t *testing.T) {
	c := mkCluster(t, 4, 2)
	if _, err := NewPFS(c, 3, 2, 0); err == nil {
		t.Fatal("3×2 over 4 nodes must fail")
	}
	if _, err := NewPFS(c, 0, 1, 0); err == nil {
		t.Fatal("zero stripes must fail")
	}
	if _, err := NewPFS(c, 2, 2, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPFSReadContentAndAccounting(t *testing.T) {
	c := mkCluster(t, 4, 2)
	pfs, _ := NewPFS(c, 2, 2, 1024)
	const size = 10 * 1024
	if err := pfs.AddFile("img", size, fillPattern); err != nil {
		t.Fatal(err)
	}
	if err := pfs.AddFile("img", size, fillPattern); err == nil {
		t.Fatal("duplicate file must fail")
	}
	buf := make([]byte, 5000)
	n, err := pfs.ReadAt(c.Compute[0], "img", buf, 3000)
	if err != nil || n != 5000 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	for i := range buf {
		if buf[i] != byte((3000+int64(i))%251) {
			t.Fatalf("content mismatch at %d", i)
		}
	}
	if c.Compute[0].RxBytes() != 5000 {
		t.Fatalf("client rx %d", c.Compute[0].RxBytes())
	}
	var served int64
	servers := 0
	for _, s := range c.Storage {
		served += s.TxBytes()
		if s.TxBytes() > 0 {
			servers++
		}
	}
	if served != 5000 {
		t.Fatalf("storage tx %d", served)
	}
	if servers < 2 {
		t.Fatalf("read spread over %d servers; striping ineffective", servers)
	}
}

func TestPFSReadPastEnd(t *testing.T) {
	c := mkCluster(t, 4, 1)
	pfs, _ := NewPFS(c, 2, 2, 1024)
	pfs.AddFile("f", 100, fillPattern)
	buf := make([]byte, 200)
	n, err := pfs.ReadAt(c.Compute[0], "f", buf, 0)
	if n != 100 || err != io.EOF {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if _, err := pfs.ReadAt(c.Compute[0], "ghost", buf, 0); err == nil {
		t.Fatal("missing file must error")
	}
	if _, err := pfs.Size("ghost"); err == nil {
		t.Fatal("missing size must error")
	}
	if sz, _ := pfs.Size("f"); sz != 100 {
		t.Fatalf("size %d", sz)
	}
}

func TestPFSLoadBalancing(t *testing.T) {
	// Sequential reads of a large file must touch all four storage nodes
	// (two stripe groups × two replicas).
	c := mkCluster(t, 4, 1)
	pfs, _ := NewPFS(c, 2, 2, 1024)
	pfs.AddFile("big", 64*1024, fillPattern)
	buf := make([]byte, 64*1024)
	pfs.ReadAt(c.Compute[0], "big", buf, 0)
	for _, s := range c.Storage {
		if s.TxBytes() == 0 {
			t.Fatalf("storage node %s served nothing", s.ID)
		}
	}
}
