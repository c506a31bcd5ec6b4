package bench

import (
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/reg"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// regClient drives one node for E7: register in all clusters at Start,
// deregister as soon as registered, stop at the Go-Ahead.
type regClient struct {
	mod interface {
		async.Module
		Register(n *async.Node, c cover.ClusterID, session int)
		Deregister(n *async.Node, c cover.ClusterID, session int)
	}
	clusters []cover.ClusterID
}

func (c *regClient) Start(n *async.Node) {
	for _, cid := range c.clusters {
		c.mod.Register(n, cid, 0)
	}
}
func (c *regClient) Recv(*async.Node, graph.NodeID, async.Msg) {}
func (c *regClient) Ack(*async.Node, graph.NodeID, async.Msg)  {}

// Registered implements reg.Callbacks.
func (c *regClient) Registered(n *async.Node, cid cover.ClusterID, s int) {
	c.mod.Deregister(n, cid, s)
}

// GoAhead implements reg.Callbacks.
func (c *regClient) GoAhead(n *async.Node, _ cover.ClusterID, _ int) {
	n.Output(true)
}

// e7RegistrationCongestion reproduces §3.2's core claim: the "natural"
// route-everything-to-the-root registration needs Ω(n) time on a shallow
// tree with many registrants behind one edge, while the wave-based
// algorithm stays proportional to the tree height per operation.
func e7RegistrationCongestion(c *Ctx) {
	t := c.table("star-of-paths: every node registers once; naive funnels Θ(n) messages through the hub")
	t.head("deg", "pathLen", "n", "scheme", "time", "msgs")
	cases := []struct{ deg, plen int }{{4, 8}, {8, 16}, {8, 32}}
	t.emit(c.jobs(len(cases), func(i int) []row {
		tc := cases[i]
		g := graph.StarOfPaths(tc.deg, tc.plen)
		cl := cover.BFSTreeCluster(g, 0)
		cov := cover.NewExplicit(g.N(), g.N(), []*cover.Cluster{cl})
		rows := make([]row, 0, 2)
		// One engine serves both schemes: the second run rearms it with
		// Reset, reusing the event wheel, outboxes, and arena.
		var sim *async.Sim
		for _, scheme := range []string{"wave", "naive"} {
			scheme := scheme
			mk := func(id graph.NodeID) async.Handler {
				client := &regClient{clusters: []cover.ClusterID{0}}
				if scheme == "wave" {
					client.mod = reg.New(1, cov, client, nil)
				} else {
					client.mod = reg.NewNaive(1, cov, client, nil)
				}
				mux := async.NewMux()
				mux.Register(1, client.mod)
				mux.Register(2, client)
				return mux
			}
			if sim == nil {
				sim = async.New(g, async.Fixed{D: 1}, mk)
			} else {
				sim.Reset(async.Fixed{D: 1}, mk)
			}
			res := sim.Run()
			rows = append(rows, row{
				cols: []any{tc.deg, tc.plen, g.N(), scheme, res.QuiesceTime, res.Msgs},
				rec: Rec{"degree": tc.deg, "pathLen": tc.plen, "n": g.N(), "scheme": scheme,
					"time": res.QuiesceTime, "msgs": res.Msgs},
			})
		}
		return rows
	}))
}

// e8AlphaBlowup isolates Appendix A's α message term M(A) + Θ(T(A)·m):
// a token ping-pong (T = M = rounds) on a dense low-diameter graph.
func e8AlphaBlowup(c *Ctx) {
	t := c.table("ping workload: M(A)=T(A)=n on ER(n, 6n); α pays Θ(T·m), main stays polylog/pulse")
	t.head("n", "m", "M(A)", "alpha-msgs", "main-msgs", "ratio", "alpha-time", "main-time")
	ns := []int{64, 128, 256}
	t.emit(c.jobs(len(ns), func(i int) []row {
		n := ns[i]
		g := graph.RandomConnected(n, 6*n, 5)
		rounds := n
		mk := func(graph.NodeID) syncrun.Handler { return &pingAlgo{rounds: rounds} }
		alpha := core.SynchronizeAlpha(g, rounds+1, async.Fixed{D: 1}, mk)
		main := core.Synchronize(core.Config{Graph: g, Bound: rounds + 1, Adversary: async.Fixed{D: 1}}, mk)
		ratio := float64(alpha.Msgs) / float64(main.Msgs)
		return []row{{
			cols: []any{n, g.M(), rounds, alpha.Msgs, main.Msgs, ratio, alpha.Time, main.Time},
			rec: Rec{"n": n, "m": g.M(), "syncM": rounds, "alphaMsgs": alpha.Msgs,
				"mainMsgs": main.Msgs, "msgRatio": ratio,
				"alphaTime": alpha.Time, "mainTime": main.Time},
		}}
	}))
}

// pingAlgo bounces a token between nodes 0 and 1 (T = M = rounds). The
// counter rides in the body's A word.
type pingAlgo struct{ rounds int }

const kindPing wire.Kind = 1

func (h *pingAlgo) Init(n syncrun.API) {
	if n.ID() == 0 {
		n.Send(1, wire.Body{Kind: kindPing})
	}
}

func (h *pingAlgo) Pulse(n syncrun.API, _ int, recvd []syncrun.Incoming) {
	if len(recvd) == 0 {
		return
	}
	k := int(recvd[0].Body.A)
	if k+1 >= h.rounds {
		n.Output(k)
		return
	}
	n.Send(recvd[0].From, wire.Body{Kind: kindPing, A: int64(k + 1)})
}

// e9AdversaryRobustness runs the synchronized BFS under every standard
// delay adversary: outputs must be identical (determinism of the
// synchronized algorithm, Theorem 5.2); time varies within the bound.
func e9AdversaryRobustness(c *Ctx) {
	t := c.table("synchronized BFS on grid 6x6; outputs must match the lockstep run under every adversary")
	t.head("adversary", "time", "msgs", "outputs-match")
	// The graph, lockstep baseline, and adversary suite are shared across
	// jobs: all deterministic, read-only once built, one adversary per job.
	g := graph.Grid(6, 6)
	mk := bfsMk([]graph.NodeID{0})
	sres := syncrun.New(g, mk).Run()
	advs := async.StandardAdversaries(g.N(), c.seedOr(77))
	t.emit(c.jobs(len(advs), func(i int) []row {
		adv := advs[i]
		res := core.Synchronize(core.Config{Graph: g, Bound: sres.Rounds + 2, Adversary: adv}, mk)
		match := len(res.Outputs) == len(sres.Outputs)
		for v, want := range sres.Outputs {
			if res.Outputs[v] != want {
				match = false
			}
		}
		return []row{{
			cols: []any{adv.Name(), res.Time, res.Msgs, match},
			rec:  Rec{"adversary": adv.Name(), "time": res.Time, "msgs": res.Msgs, "outputsMatch": match},
		}}
	}))
}

// e10CoverQuality verifies Theorem 4.21's construction quality empirically:
// tree stretch (depth/d), per-edge tree congestion, per-node membership.
func e10CoverQuality(c *Ctx) {
	t := c.table("bounds: depth = O(d·log³n), congestion = O(log⁴n), membership = O(log n)")
	t.head("graph", "d", "clusters", "maxDepth", "depth/d", "maxCongestion", "maxMembership")
	graphs := []namedGraph{
		{"grid10x10", func() *graph.Graph { return graph.Grid(10, 10) }},
		{"er128", func() *graph.Graph { return graph.RandomConnected(128, 400, 21) }},
	}
	ds := []int{1, 2, 4, 8}
	t.emit(c.jobs(len(graphs)*len(ds), func(i int) []row {
		tc := graphs[i/len(ds)]
		d := ds[i%len(ds)]
		g := tc.mk()
		q := MeasureCoverQuality(g, d)
		return []row{{
			cols: []any{tc.name, d, q.Clusters, q.MaxDepth,
				float64(q.MaxDepth) / float64(d), q.MaxCongestion, q.MaxMembership},
			rec: Rec{"graph": tc.name, "d": d, "clusters": q.Clusters, "maxDepth": q.MaxDepth,
				"depthPerD":     float64(q.MaxDepth) / float64(d),
				"maxCongestion": q.MaxCongestion, "maxMembership": q.MaxMembership},
		}}
	}))
}

// CoverQuality aggregates the E10 empirical metrics of one (graph, d)
// cover build; tests reuse it to assert the Theorem 4.21 bounds.
type CoverQuality struct {
	Clusters      int
	MaxDepth      int
	MaxCongestion int
	MaxMembership int
}

// MeasureCoverQuality builds the sparse d-cover of g and measures the E10
// quality metrics.
func MeasureCoverQuality(g *graph.Graph, d int) CoverQuality {
	cov := cover.Build(g, d, nil)
	q := CoverQuality{Clusters: len(cov.Clusters)}
	cong := map[[2]graph.NodeID]int{}
	for _, cl := range cov.Clusters {
		if dep := cl.Tree.Depth(); dep > q.MaxDepth {
			q.MaxDepth = dep
		}
		for _, e := range cl.Tree.Edges() {
			key := e
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			cong[key]++
		}
	}
	for _, n := range cong {
		if n > q.MaxCongestion {
			q.MaxCongestion = n
		}
	}
	for v := 0; v < g.N(); v++ {
		if len(cov.MemberOf(graph.NodeID(v))) > q.MaxMembership {
			q.MaxMembership = len(cov.MemberOf(graph.NodeID(v)))
		}
	}
	return q
}

// floodK is the E11 workload: node 0 starts k floods (one per proto); every
// node outputs once it has seen all k.
type floodK struct {
	k      int
	staged bool
	seen   map[async.Proto]bool
}

func (h *floodK) Start(n *async.Node) {
	h.seen = make(map[async.Proto]bool)
	if n.ID() != 0 {
		return
	}
	for i := 0; i < h.k; i++ {
		p := async.Proto(10 + i)
		h.seen[p] = true
		stage := 0
		if h.staged {
			stage = i
		}
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, async.Msg{Proto: p, Stage: stage, Body: wire.Tag(1)})
		}
	}
	if h.k == len(h.seen) && n.ID() == 0 {
		n.Output(true)
	}
}

func (h *floodK) Init(n *async.Node) { h.Start(n) }

func (h *floodK) Recv(n *async.Node, _ graph.NodeID, m async.Msg) {
	if h.seen[m.Proto] {
		return
	}
	h.seen[m.Proto] = true
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, m)
	}
	if len(h.seen) == h.k {
		n.Output(true)
	}
}

func (h *floodK) Ack(*async.Node, graph.NodeID, async.Msg) {}

// e11StagePipelining measures the composition machinery of §2.2: k
// simultaneous floods share every link of a path. Round-robin multiplexing
// (Cor 2.3) pipelines them in ≈ D + k time rather than k·D; stage
// priorities (Lem 2.5) preserve the same completion bound while strictly
// ordering the flows.
func e11StagePipelining(c *Ctx) {
	t := c.table("k floods over one path: pipelined completion ≈ D+k, far below the naive k·D")
	t.head("k", "D", "scheduling", "time", "time/(D+k)", "k·D")
	ks := []int{1, 2, 4, 8}
	t.emit(c.jobs(len(ks)*2, func(i int) []row {
		k := ks[i/2]
		staged := i%2 == 1
		name := "round-robin"
		if staged {
			name = "staged"
		}
		g := graph.Path(64)
		d := g.Diameter()
		sim := async.New(g, async.Fixed{D: 1}, func(graph.NodeID) async.Handler {
			return &floodK{k: k, staged: staged}
		})
		res := sim.Run()
		norm := res.Time / float64(d+k)
		return []row{{
			cols: []any{k, d, name, res.Time, norm, k * d},
			rec: Rec{"k": k, "diameter": d, "scheduling": name, "time": res.Time,
				"timePerDPlusK": norm, "kTimesD": k * d},
		}}
	}))
}

// gatherBench drives one gather session for E12.
type gatherBench struct {
	mod *gather.Module
}

func (c *gatherBench) Start(n *async.Node)                       { c.mod.MarkDone(n, 0) }
func (c *gatherBench) Recv(*async.Node, graph.NodeID, async.Msg) {}
func (c *gatherBench) Ack(*async.Node, graph.NodeID, async.Msg)  {}

// NeighborhoodDone implements gather.Callbacks.
func (c *gatherBench) NeighborhoodDone(n *async.Node, _ int) { n.Output(true) }

// e12GatherCost measures Theorem 3.1: completion detection in a sparse
// d-cover costs O(1) messages per tree edge per cluster and O(d·polylog)
// time.
func e12GatherCost(c *Ctx) {
	t := c.table("msgs vs 2·Σ|tree| budget; time grows with d, not n")
	t.head("graph", "d", "time", "msgs", "budget", "msgs/budget")
	graphs := []namedGraph{
		{"grid8x8", func() *graph.Graph { return graph.Grid(8, 8) }},
		{"er96", func() *graph.Graph { return graph.RandomConnected(96, 250, 33) }},
	}
	ds := []int{1, 2, 4}
	t.emit(c.jobs(len(graphs)*len(ds), func(i int) []row {
		tc := graphs[i/len(ds)]
		d := ds[i%len(ds)]
		g := tc.mk()
		cov := cover.Build(g, d, nil)
		budget := uint64(0)
		for _, cl := range cov.Clusters {
			budget += uint64(2 * cl.Tree.Size())
		}
		sim := async.New(g, c.adv(3), func(id graph.NodeID) async.Handler {
			gb := &gatherBench{}
			gb.mod = gather.New(1, cov, gb, nil)
			mux := async.NewMux()
			mux.Register(1, gb.mod)
			mux.Register(2, gb)
			return mux
		})
		res := sim.Run()
		perBudget := float64(res.Msgs) / float64(budget)
		return []row{{
			cols: []any{tc.name, d, res.Time, res.Msgs, budget, perBudget},
			rec: Rec{"graph": tc.name, "d": d, "time": res.Time, "msgs": res.Msgs,
				"budget": budget, "msgsPerBudget": perBudget},
		}}
	}))
}
