package apps

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/syncrun"
)

// TestModesByteIdentical is the output modes matrix: for every algorithm ×
// generator pair, the lockstep runner's plain, traced (KeepTrace) and
// dense-output (WithDenseOutputs) runs must agree — same T, Rounds and M,
// the same outputs (dense bodies decode to the plain map, boxed MST
// results included), and a trace of exactly M entries in pulse order.
func TestModesByteIdentical(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path40", graph.Path(40)},
		{"cycle33", graph.Cycle(33)},
		{"grid12x12", graph.Grid(12, 12)},
		{"star64", graph.Star(64)},
		{"tree127", graph.CompleteBinaryTree(127)},
		{"complete40", graph.Complete(40)},
		{"random150", graph.RandomConnected(150, 400, 5)},
		{"dumbbell", graph.Dumbbell(12, 9)},
		{"lollipop", graph.Lollipop(10, 14)},
	}
	algos := []struct {
		name string
		mk   func(g *graph.Graph) func(graph.NodeID) syncrun.Handler
	}{
		{"flood", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			return func(graph.NodeID) syncrun.Handler { return &Flood{Source: 0} }
		}},
		{"echo", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			return func(graph.NodeID) syncrun.Handler { return &Echo{Root: 0} }
		}},
		{"bfs", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			return func(graph.NodeID) syncrun.Handler { return &BFS{Sources: []graph.NodeID{0}} }
		}},
		{"bfs3src", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			srcs := []graph.NodeID{0, graph.NodeID(g.N() / 2), graph.NodeID(g.N() - 1)}
			return func(graph.NodeID) syncrun.Handler { return &BFS{Sources: srcs} }
		}},
		{"tbfs", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			return func(graph.NodeID) syncrun.Handler {
				return &TBFS{Sources: []graph.NodeID{0}, Threshold: 4}
			}
		}},
		{"leader", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			mk, _ := mkLeader(g)
			return mk
		}},
		{"mst", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			wg := graph.WithRandomWeights(g, 11)
			return mkMST(wg)
		}},
	}
	for _, tg := range graphs {
		for _, ta := range algos {
			t.Run(tg.name+"/"+ta.name, func(t *testing.T) {
				g := tg.g
				if ta.name == "mst" {
					// MST needs distinct weights; run on the weighted copy.
					g = graph.WithRandomWeights(tg.g, 11)
				}
				mk := ta.mk(g)
				plain := syncrun.New(g, mk).Run()
				traced := syncrun.New(g, mk).KeepTrace().Run()
				dense := syncrun.New(g, mk).WithDenseOutputs().Run()
				compareResults(t, plain, traced, dense)
			})
		}
	}
}

func compareResults(t *testing.T, plain, traced, dense syncrun.Result) {
	t.Helper()
	for _, r := range []syncrun.Result{traced, dense} {
		if r.T != plain.T || r.Rounds != plain.Rounds || r.M != plain.M {
			t.Fatalf("scalars differ: plain{T:%d R:%d M:%d} vs {T:%d R:%d M:%d}",
				plain.T, plain.Rounds, plain.M, r.T, r.Rounds, r.M)
		}
	}
	if !reflect.DeepEqual(traced.Outputs, plain.Outputs) {
		t.Fatal("outputs differ between plain and traced runs")
	}
	decoded := make(map[graph.NodeID]any)
	for v, has := range dense.OutSet {
		if has {
			decoded[graph.NodeID(v)] = outval.DecodeSlot(dense.OutBodies[v], dense.Outputs[graph.NodeID(v)])
		}
	}
	if !reflect.DeepEqual(decoded, plain.Outputs) {
		t.Fatal("dense outputs decode to a different map than the plain run")
	}
	if uint64(len(traced.Trace)) != plain.M {
		t.Fatalf("trace has %d entries, M = %d", len(traced.Trace), plain.M)
	}
	for i := 1; i < len(traced.Trace); i++ {
		if traced.Trace[i].Pulse < traced.Trace[i-1].Pulse {
			t.Fatalf("trace[%d] at pulse %d after pulse %d", i, traced.Trace[i].Pulse, traced.Trace[i-1].Pulse)
		}
	}
}
