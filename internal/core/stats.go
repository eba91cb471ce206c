package core

import (
	"repro/internal/peer"
	"repro/internal/zvol"
)

// DeploymentStats aggregates Squirrel-wide state: what an operator's
// dashboard would show for a data center running Squirrel.
type DeploymentStats struct {
	RegisteredImages int
	ComputeNodes     int
	OnlineNodes      int

	// SCVolume is the storage-side cVolume.
	SCVolume zvol.Stats
	// ReplicaDiskBytes / ReplicaMemBytes are the per-node costs of full
	// replication — the paper's "10 GB of disk and 60 MB of main memory
	// on each compute node" numbers, at corpus scale.
	ReplicaDiskBytes int64
	ReplicaMemBytes  int64
	// StaleReplicas counts online nodes whose latest snapshot lags the
	// scVolume (they will SyncNode on next boot).
	StaleReplicas int
	// LaggingNodes counts replicas that exhausted their registration
	// repair budget (or crashed mid-transfer) and await healing.
	LaggingNodes int
	// DamagedNodes counts replicas with quarantined (scrub-detected)
	// corrupt or missing blocks awaiting resilver.
	DamagedNodes int

	// PeerIndexObjects / PeerIndexEntries size the peer block exchange's
	// content index: distinct cache objects announced, and total
	// (object, node) announcements.
	PeerIndexObjects int
	PeerIndexEntries int
	// IndexSource names the content-index implementation serving holder
	// lookups ("central" | "gossip").
	IndexSource string
	// GossipRound is the decentralized index's completed round count
	// (zero in central mode).
	GossipRound int64
	// GossipStale counts dead entries (expired leases and retraction
	// tombstones) still stored across live gossip views — entries lookups
	// already refuse to serve and converged rounds prune (zero in central
	// mode, where staleness cannot exist).
	GossipStale int
	// PeerLoads is the per-node serve load of the peer exchange, sorted
	// by node ID (nodes that never served are absent).
	PeerLoads []peer.NodeLoad
}

// Stats computes current deployment-wide statistics.
func (s *Squirrel) Stats() DeploymentStats {
	s.state.RLock()
	defer s.state.RUnlock()
	ds := DeploymentStats{
		RegisteredImages: len(s.images),
		ComputeNodes:     len(s.order),
		SCVolume:         s.sc.Stats(),
		PeerIndexObjects: s.idx.Objects(),
		PeerIndexEntries: s.idx.Entries(),
		IndexSource:      s.idx.Source(),
		PeerLoads:        s.peers.Loads(),
	}
	if s.gossip != nil {
		ds.GossipRound = s.gossip.Round()
		ds.GossipStale = s.gossip.StaleTotal()
	}
	latest := ""
	if snap := s.sc.LatestSnapshot(); snap != nil {
		latest = snap.Name
	}
	var maxDisk, maxMem int64
	for _, r := range s.order {
		if r.online {
			ds.OnlineNodes++
		}
		if r.lagging {
			ds.LaggingNodes++
		}
		if len(r.damaged) > 0 {
			ds.DamagedNodes++
		}
		st := r.ccv.Stats()
		if st.DiskBytes > maxDisk {
			maxDisk = st.DiskBytes
		}
		if st.DDTMemBytes > maxMem {
			maxMem = st.DDTMemBytes
		}
		local := ""
		if snap := r.ccv.LatestSnapshot(); snap != nil {
			local = snap.Name
		}
		if r.online && local != latest {
			ds.StaleReplicas++
		}
	}
	ds.ReplicaDiskBytes = maxDisk
	ds.ReplicaMemBytes = maxMem
	return ds
}
