package core

import (
	"fmt"

	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/peer"
)

// IndexMode selects the content-index implementation behind the peer
// block exchange.
type IndexMode int

const (
	// IndexCentral is the paper-faithful single registry: the manager
	// owns one peer.Directory and every announce/withdraw lands there
	// synchronously.
	IndexCentral IndexMode = iota
	// IndexGossip is the decentralized directory: nodes advertise TTL'd
	// leases to consistent-hash owners and reconcile views over seeded
	// gossip rounds (internal/gossip). Lookups read a bounded-staleness
	// view instead of authoritative state.
	IndexGossip
)

// String renders the mode for stats and squirrelctl.
func (m IndexMode) String() string {
	switch m {
	case IndexGossip:
		return "gossip"
	default:
		return "central"
	}
}

// contentIndex is the single chokepoint between deployment lifecycle
// and whichever index implementation is configured. Every announce,
// retraction, and holder lookup in core routes through it, so the boot,
// register, sync, GC, crash, scrub, and partition paths cannot tell the
// central registry and the gossip directory apart — except through the
// staleness semantics each mode is allowed.
type contentIndex interface {
	// Source names the implementation ("central" | "gossip").
	Source() string
	// SetHoldings reconciles node's advertised set with what it holds.
	SetHoldings(node string, objs []string)
	// Announce publishes that node gained obj and changed nothing else;
	// held lists node's whole set for an index that wants it. Central
	// adds the one pair. Gossip re-leases the whole set exactly as
	// SetHoldings does: a lease is refreshed by re-advertising it anyway,
	// and its sequence numbers and seeded drop draws stay where a full
	// reconciliation per registration put them.
	Announce(obj, node string, held func() []string)
	// Retract withdraws node's advertisements at node's own initiative
	// (damage self-detected, polite exit). Gossip can only spread the
	// retraction as far as the network allows.
	Retract(node string)
	// Strand reacts to node being cut off by a partition. The central
	// manager withdraws it globally; gossip leaves its leases to decay —
	// the cut itself keeps them out of cross-cut lookups.
	Strand(node string)
	// NodeDown records a process death (crash or stop): central
	// withdraws; gossip removes the node from the ring and lets its
	// leases age out by TTL.
	NodeDown(node string)
	// NodeUp records a restart; the caller re-announces holdings after.
	NodeUp(node string)
	// Withdraw retracts one (obj, node) advertisement.
	Withdraw(obj, node string)
	// WithdrawObject purges obj everywhere (deregistration).
	WithdrawObject(obj string)
	// Holders resolves obj's advertised holders as seen from node
	// `from` ("" = operator view), sorted. The caller reads the slice and
	// never writes it: central hands out its own stored slice. Central
	// is exact; gossip is the first reachable ring owner's lease view.
	Holders(obj, from string) []string
	// AnnouncedBy counts the objects node currently advertises.
	AnnouncedBy(node string) int
	// Objects and Entries size the index for stats.
	Objects() int
	Entries() int
}

// centralIndex adapts the in-process peer.Directory.
type centralIndex struct{ ix *peer.Directory }

func (c centralIndex) Source() string                         { return IndexCentral.String() }
func (c centralIndex) SetHoldings(node string, objs []string) { c.ix.SetHoldings(node, objs) }
func (c centralIndex) Retract(node string)                    { c.ix.WithdrawNode(node) }
func (c centralIndex) Strand(node string)                     { c.ix.WithdrawNode(node) }
func (c centralIndex) NodeDown(node string)                   { c.ix.WithdrawNode(node) }
func (c centralIndex) NodeUp(node string)                     {}
func (c centralIndex) Withdraw(obj, node string)              { c.ix.Withdraw(obj, node) }
func (c centralIndex) WithdrawObject(obj string)              { c.ix.WithdrawObject(obj) }
func (c centralIndex) Holders(obj, from string) []string      { return c.ix.Holders(obj) }
func (c centralIndex) AnnouncedBy(node string) int            { return c.ix.AnnouncedBy(node) }
func (c centralIndex) Objects() int                           { return c.ix.Objects() }
func (c centralIndex) Entries() int                           { return c.ix.Entries() }

func (c centralIndex) Announce(obj, node string, _ func() []string) { c.ix.Announce(obj, node) }

// gossipIndex adapts the decentralized directory.
type gossipIndex struct{ d *gossip.Directory }

func (g gossipIndex) Source() string                         { return IndexGossip.String() }
func (g gossipIndex) SetHoldings(node string, objs []string) { g.d.SetHoldings(node, objs) }
func (g gossipIndex) Retract(node string)                    { g.d.Retract(node) }
func (g gossipIndex) Strand(node string)                     {}
func (g gossipIndex) NodeDown(node string)                   { g.d.MarkDown(node) }
func (g gossipIndex) NodeUp(node string)                     { g.d.MarkUp(node) }
func (g gossipIndex) Withdraw(obj, node string)              { g.d.Withdraw(obj, node) }
func (g gossipIndex) WithdrawObject(obj string)              { g.d.WithdrawObject(obj) }
func (g gossipIndex) Holders(obj, from string) []string      { return g.d.Lookup(from, obj) }
func (g gossipIndex) AnnouncedBy(node string) int            { return g.d.AnnouncedBy(node) }
func (g gossipIndex) Objects() int                           { return g.d.Objects() }
func (g gossipIndex) Entries() int                           { return g.d.Entries() }

func (g gossipIndex) Announce(_, node string, held func() []string) { g.d.SetHoldings(node, held()) }

// Gossip exposes the decentralized directory when Index is IndexGossip
// (nil otherwise) — soaks and squirrelctl read rounds and view sizes
// through it.
func (s *Squirrel) Gossip() *gossip.Directory { return s.gossip }

// GossipTicks advances the decentralized index n gossip rounds,
// returning one report per round. Rounds are the directory's only clock,
// for lease expiry and the convergence bound alike: tests and soaks
// drive them explicitly so a churn scenario replays deterministically
// from its seeds, and nothing expires between calls. Each round records
// an obs span with its advert/exchange/prune accounting.
func (s *Squirrel) GossipTicks(n int) ([]gossip.RoundReport, error) {
	if s.gossip == nil {
		return nil, fmt.Errorf("core: gossip rounds need Config.Index = IndexGossip")
	}
	reps := make([]gossip.RoundReport, 0, n)
	for i := 0; i < n; i++ {
		sp := s.tr.StartOp(obs.OpGossip, "", "")
		rep := s.gossip.Tick()
		sp.Annotate("round", rep.Round)
		sp.Annotate("adverts", int64(rep.Adverts))
		sp.Annotate("exchanges", int64(rep.Exchanges))
		sp.Annotate("transferred", int64(rep.Transferred))
		sp.Annotate("pruned", int64(rep.Pruned))
		sp.Annotate("dropped", int64(rep.Dropped))
		sp.Finish()
		reps = append(reps, rep)
	}
	return reps, nil
}

// IndexHolders resolves obj's advertised holders as seen from `from`
// ("" = operator view) through whichever index is configured — the
// lookup the boot path makes. Only tests call it: the churn soak and
// the replica and registration tests check holder sets through it.
func (s *Squirrel) IndexHolders(obj, from string) []string {
	return s.idx.Holders(obj, from)
}

// buildIndex wires the configured index implementation for a new
// deployment.
func buildIndex(s *Squirrel) {
	if s.cfg.Index != IndexGossip {
		s.idx = centralIndex{ix: peer.NewDirectory()}
		return
	}
	ids := make([]string, len(s.order))
	for i, r := range s.order {
		ids[i] = r.node.ID
	}
	s.gossip = gossip.New(s.cfg.Gossip, ids, s.cl)
	s.gossip.SetInjector(s.cfg.Faults)
	if s.tel != nil {
		s.gossip.SetCounters(s.tel.Counters())
	}
	s.idx = gossipIndex{d: s.gossip}
}
