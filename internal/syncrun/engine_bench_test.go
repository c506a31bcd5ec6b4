package syncrun

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// benchBFS is the minimal event-driven BFS used to exercise one lockstep
// pulse: every node forwards the first join it receives, so every directed
// edge carries exactly one message over the run.
type benchBFS struct{ dist int }

func (h *benchBFS) Init(n API) {
	h.dist = -1
	if n.ID() == 0 {
		h.dist = 0
		n.Output(0)
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, wire.Body{Kind: 1, A: int64(n.ID())})
		}
	}
}

func (h *benchBFS) Pulse(n API, p int, recvd []Incoming) {
	if h.dist >= 0 || len(recvd) == 0 {
		return
	}
	h.dist = p
	n.Output(p)
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, wire.Body{Kind: 1, A: int64(n.ID())})
	}
}

func benchLockstep(b *testing.B, g *graph.Graph) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := New(g, func(graph.NodeID) Handler { return &benchBFS{} }).Run()
		if res.M != uint64(2*g.M()) {
			b.Fatalf("M = %d, want %d", res.M, 2*g.M())
		}
	}
	b.ReportMetric(float64(2*g.M()), "msgs/op")
}

// BenchmarkLockstepPulse measures the per-pulse path of the lockstep
// runner — activation bookkeeping, inbox delivery, CONGEST guard — via a
// BFS whose pulse count is the grid diameter.
func BenchmarkLockstepPulse(b *testing.B) {
	benchLockstep(b, graph.Grid(30, 30))
}

// BenchmarkLockstepPulseLarge runs BFS on a 160k-edge random graph.
func BenchmarkLockstepPulseLarge(b *testing.B) {
	benchLockstep(b, graph.RandomConnected(40000, 160000, 9))
}
