package cluster

import (
	"repro/internal/fault"
)

// Delivery is the per-destination outcome of a one-to-many stream
// transfer. Wire holds the bytes as the destination received them: the
// original slice when the transfer was clean, a mutated copy under
// Truncate/Corrupt, nil under Drop/Crash.
type Delivery struct {
	Node  *Node
	Wire  []byte
	Fault fault.Kind
}

// deliveries applies the reachability map and the injector to each
// destination and accounts the bytes that actually arrived on its NIC.
// A destination across an open cut gets a Partition delivery — nothing
// reaches it and no injector draw is consumed (draws are keyed by
// (op, dst, attempt), so skipping one never shifts another node's
// verdict). A nil injector is a perfect network.
func (c *Cluster) deliveries(op string, src *Node, dsts []*Node, wire []byte, inj *fault.Injector) []Delivery {
	out := make([]Delivery, len(dsts))
	for i, d := range dsts {
		if !c.Reachable(src.ID, d.ID) {
			out[i] = Delivery{Node: d, Fault: fault.Partition}
			inj.Note(fault.Partition)
			continue
		}
		kind, got := inj.Strike(op, d.ID, 0, wire)
		out[i] = Delivery{Node: d, Wire: got, Fault: kind}
		if got != nil {
			d.Recv(int64(len(got)))
		}
	}
	return out
}

// The one-to-many transfer schemes (§3.2, §5.2).

// MulticastStream models IP multicast of the wire stream from src to
// dsts: the source transmits it once; each destination receives whatever
// the injector lets through. Returns per-destination deliveries and the
// fabric transfer duration.
func (c *Cluster) MulticastStream(op string, src *Node, dsts []*Node, wire []byte, inj *fault.Injector) ([]Delivery, float64) {
	n := int64(len(wire))
	src.Send(n)
	return c.deliveries(op, src, dsts, wire, inj), c.Fabric.TransferSec(n)
}

// UnicastStream sends the stream to each destination separately (the
// rsync strategy §3.5 argues against): the source transmits one copy per
// destination and serializes on its uplink.
func (c *Cluster) UnicastStream(op string, src *Node, dsts []*Node, wire []byte, inj *fault.Injector) ([]Delivery, float64) {
	n := int64(len(wire))
	src.Send(n * int64(len(dsts)))
	return c.deliveries(op, src, dsts, wire, inj), c.Fabric.TransferSec(n * int64(len(dsts)))
}

// PipelineStream models a LANTorrent-style chain, src → d1 → d2 → …:
// every destination receives and (except the last) retransmits, and the
// chain streams concurrently, so total time is approximated as the
// single-stream time. A destination that received any bytes (even
// truncated/corrupted ones) forwards what it got downstream; such chains
// re-route around dead members, so a dropped or crashed hop does not
// starve the rest of the chain — its successors receive the stream from
// the last healthy predecessor, which is what the per-destination
// injector draw already models.
func (c *Cluster) PipelineStream(op string, src *Node, dsts []*Node, wire []byte, inj *fault.Injector) ([]Delivery, float64) {
	src.Send(int64(len(wire)))
	out := c.deliveries(op, src, dsts, wire, inj)
	for i, d := range out {
		if i < len(out)-1 && d.Wire != nil {
			d.Node.Send(int64(len(d.Wire)))
		}
	}
	return out, c.Fabric.TransferSec(int64(len(wire)))
}

// Unicast moves n bytes point-to-point from src to dst — the NACK-style
// repair channel the registration path falls back to when a replica
// missed the one-to-many stream.
func (c *Cluster) Unicast(src, dst *Node, n int64) float64 {
	src.Send(n)
	dst.Recv(n)
	return c.Fabric.TransferSec(n)
}
