package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// smallConfig is a workload at a 1 MB geometry with a short window.
func smallConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		window:   200 * time.Millisecond,
		warmup:   50 * time.Millisecond,
		cacheMB:  1,
		workers:  2,
		setups:   2,
		trace:    trace,
		spans:    filepath.Join(t.TempDir(), "spans.jsonl"),
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// lastLine decodes the closing JSON object of a run's output.
func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return obj
}

// TestWorkloadsEmitBenchmarkMetrics runs every workload of
// BENCHMARK.json, untraced and traced, and checks that each prints
// exactly the metrics the file names, with their units and finite
// values, and reports a correct run.
func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	units := func(trace bool) map[string]string {
		m := make(map[string]string)
		if trace {
			for _, x := range spec.PerLayer {
				m[x.Name] = x.Unit
			}
		} else {
			for _, x := range spec.EndToEnd {
				m[x.Name] = x.Unit
			}
		}
		return m
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(t, w, trace)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			obj := lastLine(t, out.String())
			if obj["correct"] != true || obj["failed"] != 0.0 || obj["attempted"].(float64) < 1 {
				t.Fatalf("%s trace=%v: %v %v\n%s", w, trace, res.invalid, obj, out.String())
			}
			got := obj["metrics"].(map[string]any)
			want := units(trace)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(got), len(want))
			}
			for name, unit := range want {
				m, ok := got[name].(map[string]any)
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
					continue
				}
				v, _ := m["value"].(float64)
				if m["unit"] != unit || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v", w, trace, name, m)
				}
			}
			if trace {
				spans, err := os.ReadFile(cfg.spans)
				if err != nil {
					t.Fatal(err)
				}
				paired := 0
				for _, line := range strings.Split(string(spans), "\n") {
					if strings.Contains(line, `"server.handle"`) && !strings.Contains(line, `"parent":0,`) {
						paired++
					}
				}
				if paired == 0 {
					t.Errorf("%s: no server.handle span paired with its client.op", w)
				}
			}
		}
	}
}

func opSequence(workload string, seed uint64) [][]op {
	gens := newGenerators(workload, seed, 3, 1<<14)
	seq := make([][]op, len(gens))
	for w, g := range gens {
		for i := 0; i < 500; i++ {
			o := g.next()
			if owner(workload, o.line, len(gens)) != w {
				panic("worker drew a line it does not own")
			}
			seq[w] = append(seq[w], o)
		}
	}
	return seq
}

func TestSeedFixesOpSequence(t *testing.T) {
	for _, w := range []string{pointMix, batchMix} {
		a, b := opSequence(w, 11), opSequence(w, 11)
		for i := range a {
			if !slices.Equal(a[i], b[i]) {
				t.Fatalf("%s: same seed, different ops for worker %d", w, i)
			}
		}
		c := opSequence(w, 12)
		if slices.Equal(a[0], c[0]) {
			t.Fatalf("%s: seeds 11 and 12 drew the same ops", w)
		}
	}
}

func TestSeedFixesMonteCarloCounts(t *testing.T) {
	cfg := smallConfig(t, mcPaper, false)
	cfg.setups = 1
	a, err := measureMC(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measureMC(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.total != b.total || a.total.Intervals != 200 {
		t.Fatalf("same seed, different Monte Carlo outcomes:\n%+v\n%+v", a.total, b.total)
	}
	cfg.seed++
	c, err := measureMC(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if c.total == a.total {
		t.Fatalf("seeds %d and %d gave identical outcomes %+v", cfg.seed-1, cfg.seed, a.total)
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "storm-mix", "--seed", "3", "--seconds", "10", "--trace", "1"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload != stormMix || cfg.seed != 3 || cfg.window != 10*time.Second || !cfg.trace {
		t.Fatalf("parsed %+v", cfg)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "point-mix", "--trace", "2"},
		{"--workload", "point-mix", "--seconds", "0"},
	} {
		if _, err := parseFlags(bad, &bytes.Buffer{}); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
