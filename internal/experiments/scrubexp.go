package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/peer"
)

func init() {
	register(Experiment{ID: "figscrub", Title: "At-rest integrity: scrub detection and peer-assisted resilver", Run: FigScrub})
}

// ScrubSpec is the corpus for the scrub/resilver experiment: a handful
// of images whose caches span enough blocks that rot rates down to a few
// percent still land hits.
func ScrubSpec(s Scale) corpus.Spec {
	spec := corpus.DefaultSpec().Scale(0.011*s.Count, s.Size) // ≈6 images
	spec.ImageNonzero = int64(8 << 20 * s.Size)
	spec.CacheFrac = 0.12
	return spec
}

// scrubNodes is the cluster size; rot is injected on half the nodes so
// the other half can serve as healthy resilver sources.
const scrubNodes = 8

// FigScrub quantifies the ZFS-substitution layer the paper leans on
// (§2.2 "we use ZFS", §3.5 robustness): per-block checksums turn silent
// at-rest corruption into detectable damage, scrub finds all of it, and
// the resilver repairs from scattered peer replicas before touching the
// PFS. For each bit-rot rate the same deployment is damaged, scrubbed
// and resilvered; the table reports detection coverage and where the
// repair bytes came from.
func FigScrub(s Scale) (Table, error) {
	rotAxis := []float64{0.02, 0.05, 0.1, 0.2, 0.4}
	repo, err := corpus.New(ScrubSpec(s))
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title: "At-rest bit rot: scrub detection and resilver repair source",
		Header: []string{"rot rate", "rotted blocks", "scrub-detected", "detected (%)",
			"repaired", "peer share (%)", "resilver (s)"},
		Comment: "rot on half the nodes; detection must be 100% (physical checksums); " +
			"repairs prefer healthy peer replicas over the PFS",
	}
	for i, rate := range rotAxis {
		sq, cl, err := deploy(cluster.GigE, scrubNodes, func(c *core.Config) { c.Peer = peer.DefaultPolicy() }, repo.Images)
		if err != nil {
			return Table{}, err
		}
		inj, err := fault.New(fault.Plan{Seed: int64(1000 + i), Rot: rate})
		if err != nil {
			return Table{}, err
		}
		sq.SetFaults(inj)

		rotted := 0
		for n := 0; n < scrubNodes/2; n++ {
			refs, err := sq.InjectRot(cl.Compute[n].ID)
			if err != nil {
				return Table{}, err
			}
			rotted += len(refs)
		}
		detected := 0
		scrubs, err := sq.ScrubAll(context.Background(), epoch.Add(time.Hour))
		if err != nil {
			return Table{}, err
		}
		for _, rep := range scrubs {
			detected += rep.CorruptBlocks + rep.MissingBlocks
		}
		var repaired, peerBlocks int
		var resilverSec float64
		reps, err := sq.ResilverAll(context.Background(), epoch.Add(2*time.Hour))
		if err != nil {
			return Table{}, err
		}
		for _, r := range reps {
			repaired += r.Repaired
			peerBlocks += r.PeerBlocks
			resilverSec += r.XferSec
		}
		detPct, peerPct := 100.0, 0.0
		if rotted > 0 {
			detPct = 100 * float64(detected) / float64(rotted)
		}
		if repaired > 0 {
			peerPct = 100 * float64(peerBlocks) / float64(repaired)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", rate*100),
			fmt.Sprintf("%d", rotted),
			fmt.Sprintf("%d", detected),
			fmt.Sprintf("%.0f", detPct),
			fmt.Sprintf("%d", repaired),
			fmt.Sprintf("%.0f", peerPct),
			fmt.Sprintf("%.3f", resilverSec),
		})
	}
	return t, nil
}
