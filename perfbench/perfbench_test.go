package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// tinyRun runs a workload at 2% of its rows with a fixed operation
// count per phase (enough for a whole deck of oltp's mix), traced,
// so single-client runs repeat exactly.
func tinyRun(t *testing.T, name string, seed int64) *report {
	t.Helper()
	cfg := config{workload: name, seed: seed, seconds: 1, trace: true, scale: 0.02, ops: 2000, setups: 1, out: t.TempDir()}
	rep, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

func TestTinyRunsReportEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rep := tinyRun(t, name, 3)
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("correct=%v failed=%d of %d: %v", rep.correct, rep.failed, rep.attempted, rep.errors)
			}
			for _, set := range []struct {
				defs []metricDef
				vals map[string]float64
			}{{endToEnd, rep.e2e}, {perLayer, rep.layer}} {
				if len(set.vals) != len(set.defs) {
					t.Errorf("%d values for %d metrics", len(set.vals), len(set.defs))
				}
				for _, d := range set.defs {
					v, ok := set.vals[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) || d.unit == "" {
						t.Errorf("metric %s = %v (present %v), unit %q", d.name, v, ok, d.unit)
					}
				}
			}
			for _, d := range endToEnd {
				if rep.e2e[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, rep.e2e[d.name])
				}
			}
		})
	}
}

// TestSingleClientCountsRepeat checks that one seed gives the same
// modeled I/O and the same core counts twice on the single-client
// workloads: they are counts, so they must repeat exactly.
func TestSingleClientCountsRepeat(t *testing.T) {
	for _, name := range []string{"oltp", "join"} {
		t.Run(name, func(t *testing.T) {
			a, b := tinyRun(t, name, 5), tinyRun(t, name, 5)
			if a.e2e["io_per_op"] != b.e2e["io_per_op"] {
				t.Errorf("io_per_op %v then %v", a.e2e["io_per_op"], b.e2e["io_per_op"])
			}
			n := 0
			for _, d := range perLayer {
				if strings.HasPrefix(d.name, "core.") {
					n++
					if a.layer[d.name] != b.layer[d.name] {
						t.Errorf("%s %v then %v", d.name, a.layer[d.name], b.layer[d.name])
					}
				}
			}
			if n == 0 {
				t.Fatal("no core metrics")
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metric names and units in step with the program's.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		def, err := newWorkload(w.Name, 1)
		if err != nil || w.Name != workloadNames[i] || w.Why != def.why {
			t.Errorf("workload %d: %q (%v), why %q vs %q", i, w.Name, err, w.Why, def.why)
		}
	}
	for _, set := range []struct {
		kind string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(set.json) != len(set.code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", set.kind, len(set.json), len(set.code))
			continue
		}
		for i, m := range set.json {
			if m.Name != set.code[i].name || m.Unit != set.code[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in code", set.kind, i, m.Name, m.Unit, set.code[i].name, set.code[i].unit)
			}
		}
	}
}
