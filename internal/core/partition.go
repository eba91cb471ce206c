package core

import "repro/internal/obs"

// Network partition lifecycle. PartitionNodes opens a cut that strands a
// minority of compute nodes: streams and unicast repairs across the cut
// deliver fault.Partition, PFS reads from stranded clients fail with
// ErrPartitioned, and every stranded holder is withdrawn from the peer
// index so no boot on the majority side wastes fetch attempts on nodes
// it cannot reach (Shoal-style dynamic publishing). HealPartition closes
// the cut and runs the index half of anti-entropy — re-announcing each
// healed node's authoritative object set — and reports which nodes still
// need a SyncNode pass to catch up on registrations they missed.
//
// Both transitions are plain state changes: which nodes land in the
// minority is the caller's choice (tests and the chaos example draw it
// deterministically from the fault injector via PartitionPick), so a
// whole partition scenario replays from the plan seed alone.

// HealReport summarizes one HealPartition call.
type HealReport struct {
	// Healed lists the nodes that were stranded, sorted.
	Healed []string
	// Reannounced counts healed nodes whose holdings were re-published to
	// the peer index (online, undamaged nodes).
	Reannounced int
	// Lagging lists healed nodes that missed registrations while cut off
	// and still need offline propagation (SyncNode), sorted like Healed.
	Lagging []string
}

// PartitionNodes opens a network cut stranding the named compute nodes
// in a minority group. The storage nodes and every unnamed compute node
// remain on the majority side. Calling it again replaces the cut.
func (s *Squirrel) PartitionNodes(ids ...string) error {
	for _, id := range ids {
		if _, err := s.replica(id); err != nil {
			return err
		}
	}
	sp := s.tr.Op(nil, obs.OpPartition, "", "")
	defer sp.Finish()
	s.cl.Partition(ids)
	s.state.Lock()
	for _, id := range ids {
		// Stranded holders leave the central index immediately: the cut
		// makes them unservable no matter how healthy their replicas
		// are. The gossip index has no registrar to tell — cross-cut
		// lookups simply can't reach the stranded owners, and leases the
		// minority planted on majority views decay by TTL.
		s.idx.Strand(id)
		sp.Annotate("cut."+id, 1)
	}
	s.state.Unlock()
	s.injector().Counters().Add("partition.open", 1)
	return nil
}

// HealPartition closes the open cut (a no-op report when none is open)
// and re-announces every healed node's holdings.
func (s *Squirrel) HealPartition() (HealReport, error) {
	sp := s.tr.Op(nil, obs.OpPartition, "", "")
	defer sp.Finish()
	rep := HealReport{Healed: s.cl.Heal()}
	if len(rep.Healed) == 0 {
		return rep, nil
	}
	s.state.Lock()
	for _, id := range rep.Healed {
		r := s.replicas[id]
		if r == nil {
			continue // storage node listed in the cut: nothing to announce
		}
		if r.lagging {
			rep.Lagging = append(rep.Lagging, id)
		}
		if s.announceHoldingsLocked(r) {
			rep.Reannounced++
			sp.Annotate("heal."+id, 1)
		}
	}
	s.state.Unlock()
	s.injector().Counters().Add("partition.heal", 1)
	return rep, nil
}
