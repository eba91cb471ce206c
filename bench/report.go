package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricSpec mirrors one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads: the
// bounds are fixed there, not here.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// machine is the fingerprint recorded with every result file, so that
// numbers from different boxes are never compared.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func fingerprint(root string) machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout exported without .git has no commit to name.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// resultSet is one full pass: four workloads end to end, then the
// traced run.
type resultSet struct {
	EndToEnd []*e2eResult  `json:"end_to_end"`
	Traced   *tracedResult `json:"traced"`
}

func (s *resultSet) exitCode() int {
	for _, r := range s.EndToEnd {
		if r.Failed > 0 {
			return 1
		}
	}
	if s.Traced.Failed > 0 {
		return 1
	}
	return 0
}

// aaRow is one workload × metric comparison of the self-check.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Pass     bool    `json:"pass"`
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Fingerprint machine      `json:"fingerprint"`
	Seed        int64        `json:"seed"`
	Seconds     float64      `json:"seconds"`
	Sets        []*resultSet `json:"sets"`
	AA          []aaRow      `json:"aa,omitempty"`
}

func (b *bench) writeResult(f resultFile) error {
	js, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.outDir, "result.json")
	if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// fullSet runs every workload end to end, then the traced run with its
// stack-up for the first workload.
func (b *bench) fullSet() (*resultSet, error) {
	set := &resultSet{}
	for _, w := range workloads {
		res, err := b.e2e(w)
		if err != nil {
			return nil, err
		}
		set.EndToEnd = append(set.EndToEnd, res)
	}
	tr, err := b.traced(workloads[0])
	if err != nil {
		return nil, err
	}
	set.Traced = tr
	return set, nil
}

// selfCheck is the A/A run: the full set twice on the same binary. Each
// end-to-end metric of the second set must be no worse than the first's
// by more than the bound BENCHMARK.json fixes for it; count-type
// per-layer metrics must repeat exactly.
func (b *bench) selfCheck() int {
	spec, err := readBenchmarkFile(b.root)
	if err != nil {
		return fatal(err)
	}
	var sets []*resultSet
	for i := 0; i < 2; i++ {
		fmt.Printf("#### A/A set %d of 2\n", i+1)
		set, err := b.fullSet()
		if err != nil {
			return fatal(err)
		}
		sets = append(sets, set)
	}
	file := resultFile{Fingerprint: fingerprint(b.root), Seed: b.seed, Seconds: b.seconds, Sets: sets}
	ok := sets[0].exitCode() == 0 && sets[1].exitCode() == 0

	fmt.Printf("#### A/A comparison (second set against first; worse by more than the bound fails)\n")
	fmt.Printf("%-16s %-20s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for i, ra := range sets[0].EndToEnd {
		rb := sets[1].EndToEnd[i]
		for _, m := range spec.EndToEnd {
			a, bv := ra.Metrics[m.Name], rb.Metrics[m.Name]
			worse := (bv - a) / a
			if m.Better == "higher" {
				worse = (a - bv) / a
			}
			row := aaRow{Workload: ra.Workload, Metric: m.Name, A: a, B: bv, RelDiff: worse, Bound: m.Bound, Pass: worse <= m.Bound}
			file.AA = append(file.AA, row)
			ok = ok && row.Pass
			fmt.Printf("%-16s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				row.Workload, row.Metric, a, bv, 100*worse, 100*m.Bound, passFail(row.Pass))
		}
	}
	for _, m := range layerMetrics {
		if !m.count {
			continue
		}
		a, bv := sets[0].Traced.Metrics[m.name], sets[1].Traced.Metrics[m.name]
		ok = ok && a == bv
		fmt.Printf("%-16s %-36s %14.6g %14.6g  exact  %s\n", "traced", m.name, a, bv, passFail(a == bv))
	}
	if err := b.writeResult(file); err != nil {
		return fatal(err)
	}
	if !ok {
		fmt.Println("A/A: FAIL")
		return 1
	}
	fmt.Println("A/A: PASS")
	return 0
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
