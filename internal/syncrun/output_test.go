package syncrun

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// typedOutAlgo outputs its distance through the typed path at pulse 1 and
// node 0 additionally exercises the legacy boxed escape (a string).
type typedOutAlgo struct{}

func (typedOutAlgo) Init(n API) {
	if n.ID() == 0 {
		n.Output("root") // non-encodable: boxed escape slot
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, wire.Tag(1))
		}
	}
}

func (typedOutAlgo) Pulse(n API, p int, recvd []Incoming) {
	if len(recvd) == 0 || n.HasOutput() {
		return
	}
	n.OutputBody(wire.Body{Kind: outval.KindInt, A: int64(p)})
	for _, nb := range n.Neighbors() {
		if nb.Node != recvd[0].From {
			n.Send(nb.Node, wire.Tag(1))
		}
	}
}

// TestTypedOutputs checks both storage paths decode correctly at the
// Result boundary in the default (map) mode.
func TestTypedOutputs(t *testing.T) {
	g := graph.Path(4)
	res := New(g, func(graph.NodeID) Handler { return typedOutAlgo{} }).Run()
	want := map[graph.NodeID]any{0: "root", 1: 1, 2: 2, 3: 3}
	if !reflect.DeepEqual(res.Outputs, want) {
		t.Fatalf("outputs = %v, want %v", res.Outputs, want)
	}
}

// TestDenseOutputs checks the dense mode: typed outputs land in
// OutBodies/OutSet, only the legacy escape materializes in the map.
func TestDenseOutputs(t *testing.T) {
	g := graph.Path(4)
	res := New(g, func(graph.NodeID) Handler { return typedOutAlgo{} }).
		WithDenseOutputs().Run()
	if len(res.Outputs) != 1 || res.Outputs[0] != "root" {
		t.Fatalf("dense map = %v, want only the legacy escape", res.Outputs)
	}
	for v := 1; v <= 3; v++ {
		if !res.OutSet[v] {
			t.Fatalf("node %d missing from OutSet", v)
		}
		if got := outval.Decode(res.OutBodies[v]); got != v {
			t.Fatalf("node %d dense output = %v, want %d", v, got, v)
		}
	}
	if !res.OutSet[0] || res.OutBodies[0].Kind != 0 {
		t.Fatal("legacy escape should appear in OutSet with a zero-kind body")
	}
}

// TestDenseOutputsModeIdentical pins the two output modes to each other:
// the dense OutBodies/OutSet pair decodes to exactly the default mode's
// Outputs map, and every other Result field agrees.
func TestDenseOutputsModeIdentical(t *testing.T) {
	g := graph.RandomConnected(300, 700, 3)
	mk := func(graph.NodeID) Handler { return typedOutAlgo{} }
	plain := New(g, mk).KeepTrace().Run()
	dense := New(g, mk).KeepTrace().WithDenseOutputs().Run()
	if plain.T != dense.T || plain.Rounds != dense.Rounds || plain.M != dense.M ||
		!reflect.DeepEqual(plain.Trace, dense.Trace) {
		t.Fatalf("dense mode changed the run: T %d/%d Rounds %d/%d M %d/%d",
			plain.T, dense.T, plain.Rounds, dense.Rounds, plain.M, dense.M)
	}
	got := make(map[graph.NodeID]any)
	for v, has := range dense.OutSet {
		if has {
			got[graph.NodeID(v)] = outval.DecodeSlot(dense.OutBodies[v], dense.Outputs[graph.NodeID(v)])
		}
	}
	if !reflect.DeepEqual(got, plain.Outputs) {
		t.Fatal("dense outputs decode to a different map than the default mode")
	}
}
