package core

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// pinAlgo builds one bundled algorithm's per-node constructor for g.
type pinAlgo struct {
	name string
	prep func(g *graph.Graph) func(graph.NodeID) syncrun.Handler
}

var pinBFS = pinAlgo{"bfs", func(*graph.Graph) func(graph.NodeID) syncrun.Handler {
	src := []graph.NodeID{0}
	return func(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: src} }
}}

var pinLeader = pinAlgo{"leader", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
	layered := cover.BuildLayered(g, g.Diameter(), nil)
	spans := apps.LeaderSpansAll(g, layered)
	return func(graph.NodeID) syncrun.Handler { return &apps.Leader{Covers: layered, SpansAll: spans} }
}}

var pinMST = pinAlgo{"mst", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
	tree := cover.BFSTreeCluster(g, 0)
	weights := make([]int64, g.M())
	for j := range weights {
		weights[j] = g.Weight(graph.EdgeID(j))
	}
	return func(graph.NodeID) syncrun.Handler { return &apps.MST{Barrier: tree, Weights: weights} }
}}

// overheadPin is the exact simulated cost of one synchronized run: the
// paper's time and message overheads are deterministic functions of the
// graph, the algorithm and the adversary, so any protocol change that
// moves them shows here.
type overheadPin struct {
	spec     string
	weights  uint64 // seed of graph.WithRandomWeights; 0 = unweighted
	algo     pinAlgo
	adv      async.Adversary
	time     string // strconv 'g' -1 form of Result.Time
	msgs     uint64
	acks     uint64
	perProto map[async.Proto]uint64
}

// regP and barP build a PerProto entry for the registration or barrier
// module of one cover level.
func regP(lvl int) async.Proto { return ProtoRegBase + async.Proto(lvl) }
func barP(lvl int) async.Proto { return ProtoBarrierBase + async.Proto(lvl) }

var overheadPins = []overheadPin{
	{spec: "grid:6x6", algo: pinBFS, adv: async.SeededRandom{Seed: 1},
		time: "123.30104732513428", msgs: 2267, acks: 2267,
		perProto: map[async.Proto]uint64{ProtoAlgo: 240, ProtoTree: 647, regP(5): 120,
			barP(5): 420, barP(6): 420, barP(7): 280, barP(8): 140}},
	{spec: "grid:6x6", algo: pinBFS, adv: async.Fixed{D: 1},
		time: "222", msgs: 2282, acks: 2282,
		perProto: map[async.Proto]uint64{ProtoAlgo: 240, ProtoTree: 654, regP(5): 128,
			barP(5): 420, barP(6): 420, barP(7): 280, barP(8): 140}},
	{spec: "er:n=24,m=70,seed=1", algo: pinLeader, adv: async.SeededRandom{Seed: 1},
		time: "76.33541488647461", msgs: 1590, acks: 1590,
		perProto: map[async.Proto]uint64{ProtoAlgo: 100, ProtoTree: 194, regP(5): 8,
			barP(5): 552, barP(6): 368, barP(7): 184, barP(8): 184}},
	{spec: "er:n=24,m=70,seed=1", algo: pinLeader, adv: async.Fixed{D: 1},
		time: "131", msgs: 1590, acks: 1590,
		perProto: map[async.Proto]uint64{ProtoAlgo: 100, ProtoTree: 194, regP(5): 8,
			barP(5): 552, barP(6): 368, barP(7): 184, barP(8): 184}},
	{spec: "pa:n=40,m=3,seed=1", weights: 1, algo: pinMST, adv: async.SeededRandom{Seed: 1},
		time: "1755.2597122192383", msgs: 27137, acks: 27137,
		perProto: map[async.Proto]uint64{ProtoAlgo: 3814, ProtoTree: 15327,
			regP(5): 1600, regP(6): 544, regP(7): 164, regP(8): 72,
			barP(5): 936, barP(6): 936, barP(7): 936, barP(8): 936, barP(9): 936, barP(10): 624, barP(11): 312}},
	{spec: "pa:n=40,m=3,seed=1", weights: 1, algo: pinMST, adv: async.Fixed{D: 1},
		time: "3270", msgs: 25930, acks: 25930,
		perProto: map[async.Proto]uint64{ProtoAlgo: 3814, ProtoTree: 14016,
			regP(5): 1624, regP(6): 624, regP(7): 164, regP(8): 72,
			barP(5): 936, barP(6): 936, barP(7): 936, barP(8): 936, barP(9): 936, barP(10): 624, barP(11): 312}},
}

// TestSynchronizerOverheadPins pins Result.Time, Msgs, Acks and PerProto
// of the synchronized BFS, leader election and MST on small fixed graphs
// under a random and a fixed-delay adversary, with the pulse bound set to
// the lockstep round count plus two. Outputs must also equal lockstep.
func TestSynchronizerOverheadPins(t *testing.T) {
	for _, pin := range overheadPins {
		t.Run(fmt.Sprintf("%s/%s/%s", pin.algo.name, pin.spec, pin.adv.Name()), func(t *testing.T) {
			g, err := graph.FromSpec(pin.spec)
			if err != nil {
				t.Fatal(err)
			}
			if pin.weights != 0 {
				g = graph.WithRandomWeights(g, pin.weights)
			}
			mk := pin.algo.prep(g)
			ref := syncrun.New(g, mk).Run()
			res := Synchronize(Config{Graph: g, Bound: ref.Rounds + 2, Adversary: pin.adv}, mk)
			if !reflect.DeepEqual(res.Outputs, ref.Outputs) {
				t.Fatal("synchronized outputs differ from lockstep")
			}
			got := strconv.FormatFloat(res.Time, 'g', -1, 64)
			if got != pin.time || res.Msgs != pin.msgs || res.Acks != pin.acks || !reflect.DeepEqual(res.PerProto, pin.perProto) {
				t.Fatalf("overheads moved:\n got time=%s msgs=%d acks=%d perProto=%#v\nwant time=%s msgs=%d acks=%d perProto=%#v",
					got, res.Msgs, res.Acks, res.PerProto, pin.time, pin.msgs, pin.acks, pin.perProto)
			}
		})
	}
}
