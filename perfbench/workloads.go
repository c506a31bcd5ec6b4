package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/execpolicy"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// workload is one named input: a graph family, a synchronous algorithm,
// the synchronizer stack it runs under, and the delay adversary. The seed
// drives the adversary, the er/pa graph seeds and the MST weights; the
// program under test only ever sees the generated inputs.
type workload struct {
	name string
	// graphs is how many seeded graphs one run cycles its jobs over. Random
	// families draw several, so one run's figures do not hinge on one
	// draw's diameter and pulse bound; graph i of seed s uses seed s*graphs+i.
	graphs func(toy bool) int
	// graph returns the graph spec at full or toy size.
	graph func(seed uint64, toy bool) string
	// weighted draws distinct random edge weights from the seed (MST).
	weighted bool
	// alpha runs core.NewAlpha per node instead of the paper synchronizer.
	alpha bool
	adv   func(seed uint64) async.Adversary
	// prep builds the algorithm's own inputs (covers, barrier tree,
	// weights) and returns its per-node constructor.
	prep func(g *graph.Graph) func(graph.NodeID) syncrun.Handler
	// check validates the lockstep reference's outputs on their own.
	check func(g *graph.Graph, out map[graph.NodeID]any) error
}

var workloads = []workload{
	{
		name: "sync-bfs-grid",
		graph: func(_ uint64, toy bool) string {
			return pick(toy, "grid:6x6", "grid:32x32")
		},
		adv:   random,
		prep:  bfsPrep,
		check: bfsCheck,
	},
	{
		name:   "sync-mst-pa",
		graphs: func(toy bool) int { return pick(toy, 2, 12) },
		graph: func(seed uint64, toy bool) string {
			return fmt.Sprintf("pa:n=%d,m=3,seed=%d", pick(toy, 40, 400), seed)
		},
		weighted: true,
		adv:      random,
		prep:     mstPrep,
		check:    mstCheck,
	},
	{
		name: "alpha-bfs-grid3d",
		graph: func(_ uint64, toy bool) string {
			return pick(toy, "grid3d:4x4x4", "grid3d:12x12x12")
		},
		alpha: true,
		adv:   func(uint64) async.Adversary { return async.Fixed{D: 1} },
		prep:  bfsPrep,
		check: bfsCheck,
	},
	{
		name:   "sync-leader-er",
		graphs: func(toy bool) int { return pick(toy, 2, 12) },
		graph: func(seed uint64, toy bool) string {
			if toy {
				return fmt.Sprintf("er:n=24,m=70,seed=%d", seed)
			}
			return fmt.Sprintf("er:n=128,m=2100,seed=%d", seed)
		},
		adv:   random,
		prep:  leaderPrep,
		check: leaderCheck,
	},
}

func pick[T any](toy bool, small, full T) T {
	if toy {
		return small
	}
	return full
}

func random(seed uint64) async.Adversary { return async.SeededRandom{Seed: seed} }

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func bfsPrep(*graph.Graph) func(graph.NodeID) syncrun.Handler {
	src := []graph.NodeID{0}
	return func(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: src} }
}

func bfsCheck(g *graph.Graph, out map[graph.NodeID]any) error {
	if bad := apps.CheckBFSOutputs(g, []graph.NodeID{0}, out); bad >= 0 {
		return fmt.Errorf("lockstep BFS output wrong at node %d", bad)
	}
	return nil
}

func mstPrep(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
	tree := cover.BFSTreeCluster(g, 0)
	weights := make([]int64, g.M())
	for j := range weights {
		weights[j] = g.Weight(graph.EdgeID(j))
	}
	return func(graph.NodeID) syncrun.Handler { return &apps.MST{Barrier: tree, Weights: weights} }
}

func mstCheck(g *graph.Graph, out map[graph.NodeID]any) error {
	want := make(map[[2]graph.NodeID]bool)
	for _, id := range g.KruskalMST() {
		want[edgeKey(g.EdgeU(id), g.EdgeV(id))] = true
	}
	got := make(map[[2]graph.NodeID]bool)
	for v := 0; v < g.N(); v++ {
		res, ok := out[graph.NodeID(v)].(apps.MSTResult)
		if !ok {
			return fmt.Errorf("lockstep MST: node %d output %T", v, out[graph.NodeID(v)])
		}
		for _, nb := range res.TreeNeighbors {
			got[edgeKey(graph.NodeID(v), nb)] = true
		}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("lockstep MST has %d edges, Kruskal %d (or they differ)", len(got), len(want))
	}
	return nil
}

func edgeKey(u, v graph.NodeID) [2]graph.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.NodeID{u, v}
}

func leaderPrep(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
	layered := cover.BuildLayered(g, g.Diameter(), nil)
	spans := apps.LeaderSpansAll(g, layered)
	return func(graph.NodeID) syncrun.Handler {
		return &apps.Leader{Covers: layered, SpansAll: spans}
	}
}

func leaderCheck(g *graph.Graph, out map[graph.NodeID]any) error {
	var leader any
	for v := 0; v < g.N(); v++ {
		o, ok := out[graph.NodeID(v)]
		if !ok {
			return fmt.Errorf("lockstep leader election: node %d has no output", v)
		}
		if v == 0 {
			leader = o
		} else if !reflect.DeepEqual(o, leader) {
			return fmt.Errorf("lockstep leader election: node %d elected %v, node 0 %v", v, o, leader)
		}
	}
	return nil
}

// setupTimes is one set-up's cost by layer, in seconds.
type setupTimes struct {
	graph, syncrun, cover, total float64
}

// instance is a set-up workload: the graph, the lockstep reference, and
// the covers every job reuses.
type instance struct {
	w     *workload
	spec  string
	g     *graph.Graph
	adv   async.Adversary
	algo  func(graph.NodeID) syncrun.Handler
	ref   syncrun.Result
	bound int
	// sched/layered are the paper synchronizer's pulse schedule and covers
	// (nil under α).
	sched   *core.Schedule
	layered *cover.Layered
}

// setup builds the run's instances from an empty cover cache.
func (w *workload) setup(seed uint64, toy bool) ([]*instance, setupTimes, error) {
	k := 1
	if w.graphs != nil {
		k = w.graphs(toy)
	}
	core.ResetCoverCache()
	var st setupTimes
	insts := make([]*instance, k)
	for i := range insts {
		in, err := w.setupOne(seed*uint64(k)+uint64(i), toy, &st)
		if err != nil {
			return nil, st, err
		}
		insts[i] = in
	}
	return insts, st, nil
}

// setupOne builds one instance: graph, algorithm inputs, lockstep
// reference run, synchronizer covers. It adds its cost to st.
func (w *workload) setupOne(seed uint64, toy bool, st *setupTimes) (*instance, error) {
	in := &instance{w: w, spec: w.graph(seed, toy), adv: w.adv(seed)}
	t0 := time.Now()
	g, err := graph.FromSpec(in.spec)
	if err != nil {
		return nil, err
	}
	if w.weighted {
		g = graph.WithRandomWeights(g, seed)
	}
	in.g = g
	t1 := time.Now()
	in.algo = w.prep(g)
	t2 := time.Now()
	in.ref = syncrun.New(g, in.algo).Run()
	in.bound = in.ref.Rounds + 2
	t3 := time.Now()
	if !w.alpha {
		in.sched = core.NewSchedule(in.bound)
		in.layered = core.BuildLayeredFor(g, in.bound)
	}
	t4 := time.Now()
	st.graph += t1.Sub(t0).Seconds()
	st.cover += t2.Sub(t1).Seconds() + t4.Sub(t3).Seconds()
	st.syncrun += t3.Sub(t2).Seconds()
	st.total += t4.Sub(t0).Seconds()
	return in, nil
}

// newSim assembles one job's engine through the layers' public entry
// points. With a tracer, every node handler, Mux module and algorithm
// instance is wrapped in a span recorder.
func (in *instance) newSim(tr *tracer) *async.Sim {
	switch {
	case in.w.alpha && tr == nil:
		return async.New(in.g, in.adv, func(id graph.NodeID) async.Handler {
			return core.NewAlpha(in.algo(id), in.bound)
		})
	case in.w.alpha:
		return async.New(in.g, in.adv, func(id graph.NodeID) async.Handler {
			nt := &tr.nodes[id]
			return wrapHandler(core.NewAlpha(&tracedAlgo{in.algo(id), nt}, in.bound), nt, layerCore)
		})
	case tr == nil:
		return core.NewSynchronizedSim(core.Config{
			Graph: in.g, Bound: in.bound, Adversary: in.adv, Layered: in.layered,
		}, in.algo)
	default:
		return async.New(in.g, in.adv, func(id graph.NodeID) async.Handler {
			nt := &tr.nodes[id]
			mux := core.NewNodeHandler(in.sched, in.layered, &tracedAlgo{in.algo(id), nt})
			return wrapHandler(traceMux(mux, in.sched, nt), nt, layerMux)
		})
	}
}

// choice is the executor execpolicy.AsyncAuto picks for this instance's
// handlers, evaluated the way the engine's ModeAuto evaluates it.
func (in *instance) choice(tr *tracer) execpolicy.AsyncChoice {
	sim := in.newSim(tr)
	cloneable := true
	for v := 0; v < in.g.N(); v++ {
		h := sim.Handler(graph.NodeID(v))
		_, ok := h.(async.StateCloner)
		if pr, probed := h.(async.StateCodecProbe); probed && !pr.StateCodecOK() {
			ok = false
		}
		if !ok {
			cloneable = false
			break
		}
	}
	return execpolicy.AsyncAuto(execpolicy.DefaultWorkers(), in.g.Links(), in.adv.MinDelay(), cloneable)
}

// coverStats counts the clusters and the deepest cluster tree over the
// cover levels the synchronizer stack uses.
func (in *instance) coverStats() (clusters, depth int) {
	if in.layered == nil {
		return 0, 0
	}
	for lvl := 5; lvl <= in.sched.MaxCoverLevel; lvl++ {
		c := in.layered.Level(lvl)
		clusters += len(c.Clusters)
		depth = max(depth, c.MaxTreeDepth())
	}
	return clusters, depth
}
