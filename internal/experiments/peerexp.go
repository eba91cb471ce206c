package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/peer"
)

func init() {
	register(Experiment{ID: "figpeer", Title: "Peer block exchange: PFS-only vs peer-assisted cold boots", Run: FigPeer})
}

// PeerSpec is the corpus for the peer-exchange experiment: a handful of
// images with caches big enough that cold-miss traffic dominates.
func PeerSpec(s Scale) corpus.Spec {
	spec := corpus.DefaultSpec().Scale(0.011*s.Count, s.Size) // ≈6 images
	spec.ImageNonzero = int64(8 << 20 * s.Size)
	spec.CacheFrac = 0.12
	return spec
}

// peerHolders is how many nodes keep their replicas in each wave; every
// other node cold-boots.
const peerHolders = 2

// FigPeer extends Fig 18's question to partially hoarded clusters: when
// replicas are missing (capacity eviction, late-joining nodes), cold-boot
// misses can be served by the PFS alone or by neighboring compute nodes
// over the peer block exchange. For each cluster size the same wave of
// concurrent cold boots runs against twin deployments — peer exchange
// off and on — and the table reports where the miss bytes came from.
func FigPeer(s Scale) (Table, error) {
	nodeAxis := []int{4, 8, 16, 32}
	repo, err := corpus.New(PeerSpec(s))
	if err != nil {
		return Table{}, err
	}
	// run boots every image on every replica-less node concurrently and
	// returns (PFS bytes, peer bytes, storage-node tx bytes).
	run := func(nodes int, enabled bool) (pfsB, peerB, tx int64, err error) {
		sq, cl, err := deploy(cluster.GigE, nodes, func(c *core.Config) {
			c.Peer = peer.DefaultPolicy()
			c.Peer.Enabled = enabled
		}, repo.Images)
		if err != nil {
			return 0, 0, 0, err
		}
		for _, im := range repo.Images {
			for n := peerHolders; n < nodes; n++ {
				if err := sq.DropReplica(cl.Compute[n].ID, im.ID); err != nil {
					return 0, 0, 0, err
				}
			}
		}
		cl.ResetCounters()
		var (
			wg sync.WaitGroup
			mu sync.Mutex
		)
		for _, im := range repo.Images {
			for n := peerHolders; n < nodes; n++ {
				im, nodeID := im, cl.Compute[n].ID
				wg.Add(1)
				go func() {
					defer wg.Done()
					rep, berr := sq.Boot(context.Background(), core.BootRequest{Image: im.ID, Node: nodeID, Verify: false})
					mu.Lock()
					defer mu.Unlock()
					if berr != nil {
						err = berr
						return
					}
					pfsB += rep.NetworkBytes
					peerB += rep.PeerBytes
				}()
			}
		}
		wg.Wait()
		if err != nil {
			return 0, 0, 0, err
		}
		var stx int64
		for _, sn := range cl.Storage {
			stx += sn.TxBytes()
		}
		return pfsB, peerB, stx, nil
	}

	t := Table{Title: "Peer exchange: concurrent cold boots, PFS-only vs peer-assisted",
		Header: []string{"#nodes", "pfs-only: storage tx (MB)", "peer: storage tx (MB)", "peer: peer bytes (MB)", "peer share (%)"}}
	for _, nodes := range nodeAxis {
		_, basePeer, baseTx, err := run(nodes, false)
		if err != nil {
			return Table{}, err
		}
		if basePeer != 0 {
			return Table{}, fmt.Errorf("experiments: peer bytes %d in PFS-only run", basePeer)
		}
		pfsB, peerB, tx, err := run(nodes, true)
		if err != nil {
			return Table{}, err
		}
		share := 0.0
		if peerB+pfsB > 0 {
			share = 100 * float64(peerB) / float64(peerB+pfsB)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nodes),
			fmt.Sprintf("%.1f", float64(baseTx)/(1<<20)),
			fmt.Sprintf("%.1f", float64(tx)/(1<<20)),
			fmt.Sprintf("%.1f", float64(peerB)/(1<<20)),
			fmt.Sprintf("%.0f", share),
		})
	}
	t.Comment = "same seeded corpus and boot wave per row; the peer exchange moves the majority of cold-miss bytes off the storage nodes"
	return t, nil
}
