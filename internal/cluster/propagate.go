package cluster

import (
	"repro/internal/fault"
)

// Stream is what a one-to-many transfer carries, as the fabric sees it:
// its size, which the NICs and the fabric are charged, and its bytes,
// which only a delivery a fault damages reads. Bytes is never called for
// a clean, dropped or crashed delivery, so a sender that holds the stream
// in another form pays for its encoding only when a fault needs it.
type Stream struct {
	Size  int64
	Bytes func() []byte
}

// StreamOf is the Stream of wire bytes already in hand.
func StreamOf(wire []byte) Stream {
	return Stream{Size: int64(len(wire)), Bytes: func() []byte { return wire }}
}

// Deliver draws the verdict for one transfer attempt of the stream to dst
// (fault.Injector.Deliver) and returns it with the bytes that arrive and,
// for a verdict that Damages, the damaged bytes themselves — the one case
// that calls Bytes.
func (st Stream) Deliver(inj *fault.Injector, op, dst string, attempt int) (fault.Kind, int64, []byte) {
	kind, n := inj.Deliver(op, dst, attempt, int(st.Size))
	var got []byte
	if kind.Damages() {
		got = inj.Damage(op, dst, attempt, kind, n, st.Bytes())
	}
	return kind, int64(n), got
}

// Delivery is the per-destination outcome of a one-to-many stream
// transfer. Arrived counts the bytes that reached the destination: the
// whole stream when the transfer was clean, torn or corrupted, a prefix
// under Truncate, 0 under Drop/Crash/Partition. Wire holds the bytes as
// received when a fault damaged them (Truncate/Corrupt) — a mutated
// copy, never the stream's own — and is nil otherwise: an intact
// delivery is the stream itself.
type Delivery struct {
	Node    *Node
	Fault   fault.Kind
	Arrived int64
	Wire    []byte
}

// deliveries applies the reachability map and the injector to each
// destination and accounts the bytes that actually arrived on its NIC.
// A destination across an open cut gets a Partition delivery — nothing
// reaches it and no injector draw is consumed (draws are keyed by
// (op, dst, attempt), so skipping one never shifts another node's
// verdict). A nil injector is a perfect network.
func (c *Cluster) deliveries(op string, src *Node, dsts []*Node, st Stream, inj *fault.Injector) []Delivery {
	out := make([]Delivery, len(dsts))
	for i, d := range dsts {
		if !c.Reachable(src.ID, d.ID) {
			out[i] = Delivery{Node: d, Fault: fault.Partition}
			inj.Note(fault.Partition)
			continue
		}
		kind, n, got := st.Deliver(inj, op, d.ID, 0)
		out[i] = Delivery{Node: d, Fault: kind, Arrived: n, Wire: got}
		d.Recv(n)
	}
	return out
}

// The one-to-many transfer schemes (§3.2, §5.2).

// Multicast models IP multicast of a stream from src to dsts: the source
// transmits it once; each destination receives whatever the injector
// lets through. Returns per-destination deliveries and the fabric
// transfer duration.
func (c *Cluster) Multicast(op string, src *Node, dsts []*Node, st Stream, inj *fault.Injector) ([]Delivery, float64) {
	src.Send(st.Size)
	return c.deliveries(op, src, dsts, st, inj), c.Fabric.TransferSec(st.Size)
}

// MulticastStream is Multicast of wire bytes already in hand.
func (c *Cluster) MulticastStream(op string, src *Node, dsts []*Node, wire []byte, inj *fault.Injector) ([]Delivery, float64) {
	return c.Multicast(op, src, dsts, StreamOf(wire), inj)
}

// UnicastStream sends the stream to each destination separately (the
// rsync strategy §3.5 argues against): the source transmits one copy per
// destination and serializes on its uplink.
func (c *Cluster) UnicastStream(op string, src *Node, dsts []*Node, st Stream, inj *fault.Injector) ([]Delivery, float64) {
	n := st.Size * int64(len(dsts))
	src.Send(n)
	return c.deliveries(op, src, dsts, st, inj), c.Fabric.TransferSec(n)
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
func (c *Cluster) PipelineStream(op string, src *Node, dsts []*Node, st Stream, inj *fault.Injector) ([]Delivery, float64) {
	src.Send(st.Size)
	out := c.deliveries(op, src, dsts, st, inj)
	for i, d := range out {
		if i < len(out)-1 {
			d.Node.Send(d.Arrived) // 0 from a member nothing reached
		}
	}
	return out, c.Fabric.TransferSec(st.Size)
}

// Unicast moves n bytes point-to-point from src to dst — the NACK-style
// repair channel the registration path falls back to when a replica
// missed the one-to-many stream.
func (c *Cluster) Unicast(src, dst *Node, n int64) float64 {
	src.Send(n)
	dst.Recv(n)
	return c.Fabric.TransferSec(n)
}
