package abfs

import (
	"testing"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/graph"
)

// BenchmarkFullBFS measures the complete doubling BFS end to end: five-ish
// thresholded iterations per op, all on one engine rearmed with Sim.Reset,
// intermediate iterations in dense-output mode. The interesting trend is
// allocs/op and bytes/op versus the rebuild-everything-per-iteration
// baseline this replaced.
func BenchmarkFullBFS(b *testing.B) {
	g := graph.Grid(8, 12)
	core.BuildLayeredFor(g, 100) // warm the cover cache like a sweep does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Full(g, []graph.NodeID{0}, async.SeededRandom{Seed: 5})
		if len(res.Outputs) != g.N() {
			b.Fatal("incomplete")
		}
	}
}
