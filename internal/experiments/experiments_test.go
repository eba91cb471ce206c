package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny keeps experiment smoke tests fast on one core.
var tiny = Scale{Count: 0.02, Size: 0.15}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be present.
	want := []string{
		"fig2", "fig3", "fig4", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"tab1", "tab2", "tab3", "tab4",
	}
	for _, id := range want {
		if _, err := Find(id); err != nil {
			t.Errorf("experiment %s missing: %v", id, err)
		}
	}
	if _, err := Find("fig99"); err == nil {
		t.Error("unknown experiment should error")
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want at least %d", len(All()), len(want))
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		Title:   "t",
		Header:  []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Comment: "c",
	}
	out := tb.Render()
	for _, want := range []string{"== t ==", "333", "-- c"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesTableAlignment(t *testing.T) {
	s := []Series{
		{Label: "y1", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Label: "y2", X: []float64{1, 2}, Y: []float64{30}},
	}
	tb := SeriesTable("x", "n", s, "%.0f", "%.1f")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	if tb.Rows[1][2] != "-" {
		t.Fatalf("short series should pad with -: %v", tb.Rows[1])
	}
}

// Each experiment must run end to end at tiny scale and produce a
// non-empty table. Shapes are asserted by the dedicated substrate tests;
// here we guard the harness plumbing itself.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke sweep")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb, err := e.Run(tiny)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if tb.Render() == "" {
				t.Fatalf("%s renders empty", e.ID)
			}
		})
	}
}

// The four experiments that execute core's boot, register and resilver
// paths are pinned byte for byte at tiny scale (testdata/<id>.golden,
// rendered at eeb4e30): a refactor of those paths must not move a cell.
// figpeer runs them too but stays out — its concurrent cold boots race
// on least-loaded source selection, so two runs of one commit already
// differ.
func TestCorePathTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment golden sweep")
	}
	for _, id := range []string{"fig18", "fig18prop", "figscrub", "figtrace"} {
		t.Run(id, func(t *testing.T) {
			e, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := e.Run(tiny)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := tb.Render(); got != string(want) {
				t.Fatalf("table differs from testdata/%s.golden:\n--- got ---\n%s--- want ---\n%s", id, got, want)
			}
		})
	}
}

func TestSpecsValid(t *testing.T) {
	for name, spec := range map[string]func(Scale){
		"analysis": func(s Scale) { AnalysisSpec(s) },
		"volume":   func(s Scale) { VolumeSpec(s) },
		"boot":     func(s Scale) { BootSpec(s) },
		"network":  func(s Scale) { NetworkSpec(s) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("spec %s panicked: %v", name, r)
				}
			}()
			spec(tiny)
		})
	}
}
