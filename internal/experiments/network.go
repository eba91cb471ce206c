package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
)

func init() {
	register(Experiment{ID: "fig18", Title: "Network transfer size with scaling nodes and VMs per node", Run: Fig18})
	register(Experiment{ID: "fig18prop", Title: "Ablation: registration propagation schemes", Run: Fig18Propagation})
}

// fig18Nodes is the node-count axis of Fig 18.
var fig18Nodes = []int{1, 4, 8, 16, 32, 64}

// fig18Deployment builds a 4-storage/64-compute DAS-4-like deployment
// with the full corpus registered.
func fig18Deployment(s Scale, propagation core.Propagation) (*core.Squirrel, *cluster.Cluster, *corpus.Repository, error) {
	repo, err := corpus.New(NetworkSpec(s))
	if err != nil {
		return nil, nil, nil, err
	}
	sq, cl, err := deploy(cluster.QDR, 64, func(c *core.Config) { c.Propagation = propagation }, repo.Images)
	return sq, cl, repo, err
}

// Fig18 measures cumulative compute-node network transfer during VM
// startup, scaling node count and VMs per node, with and without
// Squirrel. Every VM boots a different VMI, the paper's worst case.
func Fig18(s Scale) (Table, error) {
	sq, cl, repo, err := fig18Deployment(s, core.Multicast)
	if err != nil {
		return Table{}, err
	}
	bootWave := func(nodes, vmsPerNode int, warm bool) (int64, error) {
		cl.ResetCounters()
		img := 0
		for n := 0; n < nodes; n++ {
			nodeID := cl.Compute[n].ID
			for v := 0; v < vmsPerNode; v++ {
				im := repo.Images[img%len(repo.Images)]
				img++
				if !warm {
					// "Without caches": bypass the local replica by
					// booting an image on a node whose replica is
					// emptied — modelled by reading via PFS directly.
					if _, err := sq.Boot(context.Background(), core.BootRequest{Image: im.ID, Node: nodeID, SkipCache: true}); err != nil {
						return 0, err
					}
					continue
				}
				if _, err := sq.Boot(context.Background(), core.BootRequest{Image: im.ID, Node: nodeID, Verify: false}); err != nil {
					return 0, err
				}
			}
		}
		return cl.ComputeRxTotal(), nil
	}
	xs := make([]float64, len(fig18Nodes))
	for i, n := range fig18Nodes {
		xs[i] = float64(n)
	}
	var series []Series
	withCaches := make([]float64, len(fig18Nodes))
	for i, n := range fig18Nodes {
		b, err := bootWave(n, 8, true)
		if err != nil {
			return Table{}, err
		}
		withCaches[i] = float64(b) / (1 << 20)
	}
	series = append(series, Series{Label: "w/ caches, vm/node=8 (MB)", X: xs, Y: withCaches})
	for _, vms := range []int{1, 2, 4, 8} {
		ys := make([]float64, len(fig18Nodes))
		for i, n := range fig18Nodes {
			b, err := bootWave(n, vms, false)
			if err != nil {
				return Table{}, err
			}
			ys[i] = float64(b) / (1 << 20)
		}
		series = append(series, Series{Label: fmt.Sprintf("w/o caches, vm/node=%d (MB)", vms), X: xs, Y: ys})
	}
	t := SeriesTable("Fig 18: cumulative compute-node transfer (MB) vs node count", "#nodes", series, "%.0f", "%.1f")
	t.Comment = "paper: with Squirrel exactly 0; without, ≈180 GB at 512 VMs (full-size working sets)"
	return t, nil
}

// Fig18Propagation is the propagation ablation (§3.2/§3.5): total bytes
// the storage uplink transmits and wall time to propagate one
// registration diff to 64 nodes under each scheme.
func Fig18Propagation(s Scale) (Table, error) {
	t := Table{Title: "Ablation: propagation schemes for one registration diff to 64 nodes",
		Header: []string{"scheme", "storage tx (MB)", "transfer time (s, 1GbE)"}}
	for _, p := range []struct {
		name string
		prop core.Propagation
	}{{"multicast", core.Multicast}, {"unicast fan-out", core.UnicastFanout}, {"pipeline", core.Pipeline}} {
		repo, err := corpus.New(NetworkSpec(Scale{Count: 0.02, Size: s.Size}))
		if err != nil {
			return Table{}, err
		}
		sq, cl, err := deploy(cluster.GigE, 64, func(c *core.Config) { c.Propagation = p.prop }, nil)
		if err != nil {
			return Table{}, err
		}
		rep, err := sq.Register(context.Background(), core.RegisterRequest{Image: repo.Images[0], At: epoch})
		if err != nil {
			return Table{}, err
		}
		tx := cl.Storage[0].TxBytes()
		t.Rows = append(t.Rows, []string{p.name,
			fmt.Sprintf("%.2f", float64(tx)/(1<<20)), fmt.Sprintf("%.3f", rep.XferSec)})
	}
	t.Comment = "multicast transmits the diff once; unicast fan-out scales tx with node count (§3.5's rsync bottleneck)"
	return t, nil
}
