package graph

import (
	"strconv"
	"strings"
	"testing"
)

// TestFromSpecRejectsDegenerate pins the input boundary: sizes that would
// yield no nodes, a degenerate shape, or an id-space overflow are errors
// naming the problem — not a generator panic and not a 0-node graph that
// panics later (graph.PartitionContiguous, the engines).
func TestFromSpecRejectsDegenerate(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"cycle:0", "at least 3 nodes"},
		{"cycle:1", "at least 3 nodes"},
		{"cycle:2", "at least 3 nodes"},
		{"path:0", "at least 1 nodes"},
		{"path:-3", "at least 1 nodes"},
		{"star:0", "at least 1 nodes"},
		{"tree:0", "at least 1 nodes"},
		{"complete:0", "at least 1 nodes"},
		{"complete:70000", "exceed MaxEdges"},
		{"path:3000000000", "exceed MaxNodes"},
		{"grid:0x5", "at least 1"},
		{"grid:5x0", "at least 1"},
		{"grid:-2x3", "at least 1"},
		{"grid:100000x100000", "exceeds MaxNodes"},
		{"grid3d:0x2x2", "at least 1"},
		{"er:n=0,m=0", "at least 1 nodes"},
		{"er:n=10,m=3", "needs m >= 9"},
		{"er:n=2,m=-1", "needs m >= 1"},
		{"er:n=10,m=3000000000", "exceed MaxEdges"},
	}
	for _, c := range cases {
		g, err := FromSpec(c.spec)
		if err == nil {
			t.Errorf("FromSpec(%q) = %d-node graph, want an error", c.spec, g.N())
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("FromSpec(%q) error %q does not mention %q", c.spec, err, c.want)
		}
	}
	// The smallest accepted sizes still build.
	for _, spec := range []string{"cycle:3", "path:1", "grid:1x1", "er:n=1,m=0", "complete:1"} {
		if g, err := FromSpec(spec); err != nil || g.N() < 1 {
			t.Errorf("FromSpec(%q) = %v, %v; want a graph", spec, g, err)
		}
	}
}

// fuzzSpecMaxProduct bounds the graphs the fuzzer builds: an input whose
// decimal numbers multiply past it is skipped, so every execution stays
// small. The large-size rejections are pinned by the table test instead.
const fuzzSpecMaxProduct = 1 << 14

// FuzzFromSpec: any spec string yields an error or a finalized graph with
// at least one node — never a panic.
func FuzzFromSpec(f *testing.F) {
	for _, s := range []string{
		"path:5", "cycle:2", "grid:0x5", "grid:3x4", "grid3d:2x3x4",
		"star:7", "tree:0", "complete:5", "er:n=10,m=15,seed=3", "er:n=0,m=0",
		"pa:n=10,m=2,seed=4", "ring:k=4,c=3", "bogus:5", "grid3d", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		product := uint64(1)
		for _, run := range strings.FieldsFunc(spec, func(r rune) bool { return r < '0' || r > '9' }) {
			v, err := strconv.ParseUint(run, 10, 64)
			if err != nil || v > fuzzSpecMaxProduct {
				return
			}
			if v > 0 {
				product *= v
			}
			if product > fuzzSpecMaxProduct {
				return
			}
		}
		g, err := FromSpec(spec)
		if err != nil {
			return
		}
		if g.N() < 1 || !g.Final() {
			t.Fatalf("FromSpec(%q) = graph with N=%d final=%v, want N >= 1 and finalized", spec, g.N(), g.Final())
		}
	})
}
