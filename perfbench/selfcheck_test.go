package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-check holds the
// command to: workload names and the metric names of each mode.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestToySelfCheck runs every workload at toy size in both modes: every
// named metric is reported with its declared unit, and no job fails.
func TestToySelfCheck(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, sw := range spec.Workloads {
		if !slices.Contains(names, sw.Name) {
			t.Errorf("BENCHMARK.json workload %q is not implemented", sw.Name)
		}
	}
	for _, w := range spec.Workloads {
		wl, err := findWorkload(w.Name)
		if err != nil {
			continue
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rep, err := run(wl, options{seed: 3, seconds: 0.05, trace: traced, toy: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d/%d: %s", w.Name, traced,
					rep.correct, rep.failed, rep.attempted, strings.Join(rep.errs, "; "))
			}
			got := map[string]metric{}
			for _, m := range rep.metrics {
				got[m.name] = m
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(got), len(want))
			}
			for _, m := range want {
				if g, ok := got[m.Name]; !ok || g.unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.Name, traced, m.Name, g.unit, m.Unit)
				}
			}
			if traced && got["fail_ratio"].value != 0 {
				t.Errorf("%s: fail_ratio %v", w.Name, got["fail_ratio"].value)
			}
		}
	}
}

// TestToyCountsRepeat pins the deterministic figures: two runs at one seed
// report identical simulated counts and overheads.
func TestToyCountsRepeat(t *testing.T) {
	deterministic := func(name string) bool {
		return strings.HasSuffix(name, ".msgs") || name == "syncrun.rounds" ||
			name == "async.events" || name == "time_overhead" || name == "msg_overhead"
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			var prev map[string]float64
			for range 2 {
				rep, err := run(&wl, options{seed: 5, seconds: 0.02, trace: traced, toy: true})
				if err != nil || !rep.correct {
					t.Fatalf("%s: err=%v correct=%v", wl.name, err, rep != nil && rep.correct)
				}
				cur := map[string]float64{}
				for _, m := range rep.metrics {
					if deterministic(m.name) {
						cur[m.name] = m.value
					}
				}
				if prev != nil && !maps.Equal(prev, cur) {
					t.Errorf("%s trace=%v: counts differ between runs: %v vs %v", wl.name, traced, prev, cur)
				}
				prev = cur
			}
		}
	}
}
