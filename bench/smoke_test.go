package main

import (
	"math"
	"sort"
	"testing"
)

// smokeWorkloads are the four workloads shrunk to a few dozen ops a
// round, same names and same code paths, so that all of them run in
// seconds even under the race detector, where a boot costs ten times
// what it does otherwise.
func smokeWorkloads() []*workload {
	small := map[string]workload{
		"warm_boot":       {images: 4, roundOps: 16, tracedOps: 4},
		"cold_boot":       {images: 4, roundOps: 16, tracedOps: 4},
		"register_stream": {images: 6, roundOps: 6, tracedOps: 3},
		"control_rpc":     {images: 4, roundOps: 40, tracedOps: 20},
	}
	var out []*workload
	for _, w := range workloads {
		c := *w
		s := small[w.name]
		c.images, c.roundOps, c.tracedOps = s.images, s.roundOps, s.tracedOps
		out = append(out, &c)
	}
	return out
}

func declared(t *testing.T) *benchmarkFile {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func names(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// sameSet fails unless emitted holds exactly the declared names, each
// with a finite value.
func sameSet(t *testing.T, what string, declared []string, emitted map[string]float64) {
	t.Helper()
	for _, name := range declared {
		v, ok := emitted[name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json declares %s, the run did not emit it", what, name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s = %v", what, name, v)
		}
	}
	for name := range emitted {
		if i := sort.SearchStrings(declared, name); i == len(declared) || declared[i] != name {
			t.Errorf("%s: the run emitted %s, which BENCHMARK.json does not declare", what, name)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	want := names(declared(t).EndToEnd)
	for _, w := range smokeWorkloads() {
		res, err := runE2E(inprocLauncher, w, 1, 0, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		if res.Rounds != 2 || res.Samples != 2*w.roundOps {
			t.Errorf("%s: %d rounds, %d samples; want 2 and %d", w.name, res.Rounds, res.Samples, 2*w.roundOps)
		}
		moves := w.name == "cold_boot" || w.name == "register_stream"
		if (res.ComputeRxKBOp > 0) != moves {
			t.Errorf("%s: compute_rx_kb_per_op = %g", w.name, res.ComputeRxKBOp)
		}
		sameSet(t, w.name, want, res.Metrics)
		for _, m := range e2eMetrics {
			// A round this small can cost less CPU than one 10 ms tick.
			if v := res.Metrics[m.name]; v < 0 || (v == 0 && m.name != "cpu_ms_per_op") {
				t.Errorf("%s: %s = %g, want a positive value", w.name, m.name, v)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	ws := smokeWorkloads()
	run := func() *tracedResult {
		res, err := runTraced(ws, ws[0], 1, 0, probeSize{blocks: 4, images: 2}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%d of %d traced ops failed: %v", res.Failed, res.Attempted, res.Failures)
		}
		return res
	}
	a, b := run(), run()
	sameSet(t, "traced", names(declared(t).PerLayer), a.Metrics)
	for _, m := range layerMetrics {
		if m.count && a.Metrics[m.name] != b.Metrics[m.name] {
			t.Errorf("count %s = %v, then %v: counts must repeat exactly", m.name, a.Metrics[m.name], b.Metrics[m.name])
		}
	}
	for _, w := range ws {
		rows := a.StackUps[w.name]
		if len(rows) < 2 || rows[0].Depth != 0 || rows[1].Depth != 1 {
			t.Errorf("%s: stack-up %+v has no root with a child", w.name, rows)
		}
	}
}

func TestDeclarationsMatchTheCode(t *testing.T) {
	spec := declared(t)
	units := map[string]string{}
	for _, m := range append(append([]metricDecl{}, e2eMetrics...), layerMetrics...) {
		units[m.name] = m.unit
	}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if unit, ok := units[m.Name]; !ok || unit != m.Unit {
			t.Errorf("BENCHMARK.json gives %s the unit %q, the code %q", m.Name, m.Unit, unit)
		}
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, the code's %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("BENCHMARK.json workloads %v, the code's %v", got, want)
		}
	}
}
