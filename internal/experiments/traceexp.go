package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/peer"
)

func init() {
	register(Experiment{ID: "figtrace", Title: "Boot latency breakdown from operation traces: cache vs peer vs PFS", Run: FigTrace})
}

// FigTrace regenerates the boot-latency breakdown from the telemetry
// layer instead of the per-boot reports: a mixed warm/cold boot wave
// runs on a traced deployment, then the table is built purely by
// walking the recorded boot span trees and summing their lane children
// (local cacheRead, peerFetch, pfsRead). Before rendering, every lane's
// span-derived byte total is cross-checked against the BootReport
// accounting — if tracing and reporting ever disagree, the experiment
// errors out rather than print a plausible-looking table.
func FigTrace(s Scale) (Table, error) {
	const nodes = 8
	repo, err := corpus.New(PeerSpec(s))
	if err != nil {
		return Table{}, err
	}
	sq, cl, err := deploy(cluster.GigE, nodes, func(c *core.Config) {
		c.Peer = peer.DefaultPolicy()
		// The table is rebuilt from every boot's span tree, so the ring must
		// hold the full wave — the small always-on default would evict the
		// early boots and silently undercount the lanes.
		c.Obs = obs.New(len(repo.Images)*nodes + 16)
	}, repo.Images)
	if err != nil {
		return Table{}, err
	}
	// The first peerHolders nodes keep every replica; the rest cold-boot
	// and pull their misses from those holders (or the PFS for gaps).
	for _, im := range repo.Images {
		for n := peerHolders; n < nodes; n++ {
			if err := sq.DropReplica(cl.Compute[n].ID, im.ID); err != nil {
				return Table{}, err
			}
		}
	}
	var wantCache, wantPeer, wantPFS int64
	for _, im := range repo.Images {
		for n := 0; n < nodes; n++ {
			rep, err := sq.Boot(context.Background(), core.BootRequest{Image: im.ID, Node: cl.Compute[n].ID, Verify: false})
			if err != nil {
				return Table{}, err
			}
			wantCache += rep.CacheBytes
			wantPeer += rep.PeerBytes
			wantPFS += rep.NetworkBytes
		}
	}

	// Rebuild the same totals from the boot span trees alone.
	type lane struct {
		name   string
		kind   string
		bytes  int64
		simSec float64
	}
	lanes := []*lane{
		{name: "local cache", kind: obs.OpCacheRead},
		{name: "peer exchange", kind: obs.OpPeerFetch},
		{name: "PFS", kind: obs.OpPFSRead},
	}
	tel := sq.Telemetry()
	var boots int
	for _, d := range tel.Trees() {
		if d.Kind != obs.OpBoot {
			continue
		}
		boots++
		for _, ln := range lanes {
			for _, c := range d.Children {
				if c.Kind == ln.kind {
					ln.bytes += c.Bytes
					ln.simSec += c.SimSec
				}
			}
		}
	}
	if boots != len(repo.Images)*nodes {
		return Table{}, fmt.Errorf("experiments: traced %d boot spans, ran %d boots (ring too small?)",
			boots, len(repo.Images)*nodes)
	}
	for _, check := range []struct {
		ln   *lane
		want int64
	}{{lanes[0], wantCache}, {lanes[1], wantPeer}, {lanes[2], wantPFS}} {
		if check.ln.bytes != check.want {
			return Table{}, fmt.Errorf("experiments: %s spans carry %d bytes, boot reports say %d",
				check.ln.name, check.ln.bytes, check.want)
		}
	}

	var totalB int64
	var totalSec float64
	for _, ln := range lanes {
		totalB += ln.bytes
		totalSec += ln.simSec
	}
	t := Table{Title: "Boot byte/time provenance reconstructed from span trees",
		Header: []string{"lane", "bytes (MB)", "byte share (%)", "sim time (s)", "time share (%)"}}
	for _, ln := range lanes {
		bShare, tShare := 0.0, 0.0
		if totalB > 0 {
			bShare = 100 * float64(ln.bytes) / float64(totalB)
		}
		if totalSec > 0 {
			tShare = 100 * ln.simSec / totalSec
		}
		t.Rows = append(t.Rows, []string{
			ln.name,
			fmt.Sprintf("%.1f", float64(ln.bytes)/(1<<20)),
			fmt.Sprintf("%.0f", bShare),
			fmt.Sprintf("%.3f", ln.simSec),
			fmt.Sprintf("%.0f", tShare),
		})
	}
	snap := tel.Snapshot()
	t.Comment = fmt.Sprintf("lane totals verified against BootReport accounting across %d traced boots (%d spans recorded); cache bytes are cheap local reads, so the network lanes dominate time",
		boots, snap.SpansRecorded)
	return t, nil
}
