package main

import (
	"encoding/json"
	"os"
	"testing"
)

// contract is the part of BENCHMARK.json the results must match.
type contract struct {
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

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWorkloadsTiny runs every workload at a tiny size on a second seed,
// untraced and traced, and checks the gate passes and that exactly the
// contract's metrics appear, each with its unit.
func TestWorkloadsTiny(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		spec, ok := findWorkload(w.Name)
		if !ok {
			t.Fatalf("workload %q of BENCHMARK.json is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			rep, err := run(spec, t.TempDir(), 2, 0, trace, true)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			res := rep.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d violations=%v", w.Name, trace, res.Correct, res.Failed, res.Attempted, rep.Violations)
			}
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			} else {
				reported, _ := rep.Info["reported"].(map[string]metric)
				for _, name := range []string{"commit_p99_us", "detect_p99_us", "quiesce_s"} {
					if reported[name].Value <= 0 {
						t.Errorf("%s: info reports %s = %v, want > 0", w.Name, name, reported[name])
					}
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, _ := tailPercentile(xs); p != 99 {
		t.Errorf("1000 samples: p%v, want p99", p)
	}
	if p, _ := tailPercentile(xs[:500]); p != 98 {
		t.Errorf("500 samples: p%v, want p98", p)
	}
	if p, _ := tailPercentile(xs[:200]); p != 95 {
		t.Errorf("200 samples: p%v, want p95", p)
	}
	if d := drift(xs); d <= 1 {
		t.Errorf("drift of a rising series = %v, want > 1", d)
	}
}
