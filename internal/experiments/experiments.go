// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic corpus. Each experiment returns typed
// rows/series and can render itself as the text table the cmd/experiments
// tool prints; bench_test.go at the repository root wraps each one in a
// testing.B benchmark.
//
// Corpus scale: the paper's dataset is 607 images × ≈2.4 GB nonzero; the
// default experiment corpora here are scaled to run on one machine (see
// each experiment's Spec function). Absolute values therefore differ from
// the paper; EXPERIMENTS.md records the side-by-side comparison of
// shapes.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
)

// Scale multiplies experiment corpus sizes; 1.0 is the documented default
// used by EXPERIMENTS.md. Benches use smaller scales via the -scale flag
// of cmd/experiments or the Spec helpers directly.
type Scale struct {
	Count float64 // image-count multiplier
	Size  float64 // image-size multiplier
}

// DefaultScale keeps experiments single-machine friendly.
var DefaultScale = Scale{Count: 1, Size: 1}

// AnalysisSpec is the corpus for the block-analysis experiments (Figs 2,
// 3, 4, 12; Table 1): fewer but bigger images, so caches span many blocks
// even at 1 MB.
func AnalysisSpec(s Scale) corpus.Spec {
	spec := corpus.DefaultSpec().Scale(0.13*s.Count, s.Size) // ≈80 images
	spec.ImageNonzero = int64(16 << 20 * s.Size)
	spec.CacheFrac = 0.12
	return spec
}

// VolumeSpec is the corpus for the cVolume experiments (Figs 8, 9, 10,
// 13–17): the full 607-image mix with smaller images, since those figures
// need the image-count axis.
func VolumeSpec(s Scale) corpus.Spec {
	spec := corpus.DefaultSpec().Scale(1*s.Count, s.Size)
	spec.ImageNonzero = int64(3 << 20 * s.Size)
	spec.CacheFrac = 0.12
	return spec
}

// BootSpec is the corpus for Fig 11: moderate image count, caches large
// enough that I/O matters.
func BootSpec(s Scale) corpus.Spec {
	spec := corpus.DefaultSpec().Scale(0.05*s.Count, s.Size) // ≈30 images
	spec.ImageNonzero = int64(12 << 20 * s.Size)
	spec.CacheFrac = 0.12
	return spec
}

// NetworkSpec is the corpus for Fig 18: 512 distinct images (64 nodes × 8
// VMs each boots a different VMI), small since only boot sets move.
func NetworkSpec(s Scale) corpus.Spec {
	spec := corpus.DefaultSpec().Scale(0.85*s.Count, s.Size) // ≥512 images
	spec.ImageNonzero = int64(2 << 20 * s.Size)
	spec.CacheFrac = 0.12
	return spec
}

// epoch is when every experiment's first registration happens.
var epoch = time.Date(2014, 6, 23, 0, 0, 0, 0, time.UTC)

// deploy builds the deployment the core-path experiments start from: four
// storage nodes and computeNodes compute nodes on fabric, a 2×2-striped
// PFS, the paper's configuration adjusted by tweak (nil for none), and
// images registered a minute apart from epoch.
func deploy(fabric cluster.Fabric, computeNodes int, tweak func(*core.Config), images []*corpus.Image) (*core.Squirrel, *cluster.Cluster, error) {
	cl, err := cluster.New(fabric, 4, computeNodes)
	if err != nil {
		return nil, nil, err
	}
	pfs, err := cluster.NewPFS(cl, 2, 2, 0)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	if tweak != nil {
		tweak(&cfg)
	}
	sq, err := core.New(cfg, cl, pfs)
	if err != nil {
		return nil, nil, err
	}
	for i, im := range images {
		if _, err := sq.Register(context.Background(), core.RegisterRequest{Image: im, At: epoch.Add(time.Duration(i) * time.Minute)}); err != nil {
			return nil, nil, err
		}
	}
	return sq, cl, nil
}

// Series is one labelled line of a figure.
type Series struct {
	Label  string
	X      []float64
	Y      []float64
	XLabel string
	YLabel string
}

// Table is a rendered text table.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Comment string
}

// Render prints the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Comment != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Comment)
	}
	return b.String()
}

// SeriesTable renders a set of series sharing an X axis as one table.
func SeriesTable(title, xName string, series []Series, xFmt, yFmt string) Table {
	t := Table{Title: title, Header: []string{xName}}
	for _, s := range series {
		t.Header = append(t.Header, s.Label)
	}
	if len(series) == 0 {
		return t
	}
	for i := range series[0].X {
		row := []string{fmt.Sprintf(xFmt, series[0].X[i])}
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf(yFmt, s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// sizesAsFloats converts block sizes to KB for figure X axes.
func sizesAsFloats(sizes []block.Size) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = float64(s) / 1024
	}
	return out
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string // "fig2", "tab1", ...
	Title string
	Run   func(s Scale) (Table, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
