package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestByName(t *testing.T) {
	var sb strings.Builder
	if !ByName(&sb, "E10") {
		t.Fatal("E10 unknown")
	}
	if !strings.Contains(sb.String(), "sparse cover quality") {
		t.Fatalf("unexpected output: %s", sb.String())
	}
	if ByName(io.Discard, "E99") {
		t.Fatal("E99 should be unknown")
	}
}

func TestRegistryOrdered(t *testing.T) {
	ids := IDs()
	// E13 and E14 (the removed lockstep worker pool's and bounded-lag
	// windows' tables) and E15 (the removed speculative executor's) are
	// retired, not reused, so published tables keep their ids.
	var want []string
	for i := 1; i <= 18; i++ {
		if i < 13 || i > 15 {
			want = append(want, fmt.Sprintf("E%d", i))
		}
	}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("registry = %v, want %v", ids, want)
	}
	infos := List()
	for i, info := range infos {
		if info.ID != ids[i] || info.Title == "" {
			t.Fatalf("List()[%d] = %+v inconsistent with IDs()", i, info)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := Run(io.Discard, []string{"E7", "bogus"}, Options{}); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

// deterministicSubset lists experiments whose outputs carry no wall-clock
// measurements, so their tables must be byte-identical across worker
// counts.
var deterministicSubset = []string{"E7", "E9", "E10", "E11", "E12"}

// TestParallelMatchesSerial is the harness determinism contract: a
// parallel run merges job results in job order, so tables and JSON records
// are byte-identical to the serial run.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps")
	}
	var serial, parallel bytes.Buffer
	if err := Run(&serial, deterministicSubset, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Run(&parallel, deterministicSubset, Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("parallel tables differ from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}

	var serialJSON, parallelJSON bytes.Buffer
	if err := Run(&serialJSON, deterministicSubset, Options{Workers: 1, JSON: true}); err != nil {
		t.Fatal(err)
	}
	if err := Run(&parallelJSON, deterministicSubset, Options{Workers: 8, JSON: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialJSON.Bytes(), parallelJSON.Bytes()) {
		t.Fatal("parallel JSON differs from serial")
	}
}

// TestJSONOutputShape checks the syncbench/v1 document structure: schema
// tag, one experiment entry per requested id, and non-empty row records.
func TestJSONOutputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	var buf bytes.Buffer
	if err := Run(&buf, []string{"E7", "E11"}, Options{JSON: true}); err != nil {
		t.Fatal(err)
	}
	var out Output
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if out.Schema != "syncbench/v1" {
		t.Fatalf("schema = %q", out.Schema)
	}
	if len(out.Experiments) != 2 || out.Experiments[0].ID != "E7" || out.Experiments[1].ID != "E11" {
		t.Fatalf("experiments = %+v", out.Experiments)
	}
	for _, e := range out.Experiments {
		if len(e.Rows) == 0 {
			t.Fatalf("experiment %s has no rows", e.ID)
		}
		for _, r := range e.Rows {
			if len(r) == 0 {
				t.Fatalf("experiment %s has an empty record", e.ID)
			}
		}
	}
}

func TestCheapExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps")
	}
	for _, id := range []string{"E7", "E9", "E11", "E12"} {
		if !ByName(io.Discard, id) {
			t.Fatalf("%s missing", id)
		}
	}
}

// TestE10CoverQualityInvariants re-checks the E10 empirical metrics
// against Theorem 4.21's bounds on the experiment's own graph suite:
// depth = O(d·log³n), congestion = O(log⁴n), membership = O(log n).
func TestE10CoverQualityInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("cover sweeps")
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid10x10", graph.Grid(10, 10)},
		{"er128", graph.RandomConnected(128, 400, 21)},
	}
	for _, tc := range cases {
		logn := bits.Len(uint(tc.g.N()))
		for _, d := range []int{1, 2, 4, 8} {
			q := MeasureCoverQuality(tc.g, d)
			if q.Clusters == 0 {
				t.Fatalf("%s d=%d: no clusters", tc.name, d)
			}
			if bound := 3*d*logn*logn*logn + 4*d + 8; q.MaxDepth > bound {
				t.Fatalf("%s d=%d: maxDepth %d > O(d·log³n) bound %d", tc.name, d, q.MaxDepth, bound)
			}
			if bound := logn*logn*logn*logn + 8; q.MaxCongestion > bound {
				t.Fatalf("%s d=%d: congestion %d > O(log⁴n) bound %d", tc.name, d, q.MaxCongestion, bound)
			}
			if bound := 4*logn + 4; q.MaxMembership > bound {
				t.Fatalf("%s d=%d: membership %d > O(log n) bound %d", tc.name, d, q.MaxMembership, bound)
			}
		}
	}
}
