package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// BetaSynchronizer is Awerbuch's β (Appendix A): a global BFS tree carries,
// per pulse, a convergecast of "my subtree is safe for p" followed by a
// broadcast of "advance to p+1". Time overhead Θ(D) per pulse; message
// overhead Θ(n) per pulse.
//
// Per-pulse state is bound-indexed slices allocated once at construction.
type betaNode struct {
	algo  syncrun.Handler
	bound int
	tree  *cover.Cluster

	pulse      int
	recvd      [][]syncrun.Incoming
	sendAcked  []int
	selfSafe   []bool
	childSafe  []int // pulse -> children subtrees reported safe
	reportSent []bool
	cs         congestStamp
	api        betaAPI // the current pulse's API; evaluations never nest
}

const protoBetaTree async.Proto = 4

var _ async.Handler = (*betaNode)(nil)

// NewBeta builds the β-synchronized handler for one node; tree is the
// shared BFS-tree cluster (its construction is β's initialization, which
// Appendix A ignores in the overhead accounting).
func NewBeta(algo syncrun.Handler, bound int, tree *cover.Cluster) async.Handler {
	return &betaNode{
		algo:       algo,
		bound:      bound,
		tree:       tree,
		recvd:      make([][]syncrun.Incoming, bound+1),
		sendAcked:  make([]int, bound+1),
		selfSafe:   make([]bool, bound+1),
		childSafe:  make([]int, bound+1),
		reportSent: make([]bool, bound+1),
	}
}

// Init implements async.Handler.
func (b *betaNode) Init(n *async.Node) { b.runPulse(n, 0) }

func (b *betaNode) runPulse(n *async.Node, p int) {
	b.pulse = p
	b.api = betaAPI{n: n, b: b, pulse: p, epoch: b.cs.begin(n.Degree())}
	api := &b.api
	if p == 0 {
		b.algo.Init(api)
	} else {
		batch := b.recvd[p-1]
		slices.SortFunc(batch, func(x, y syncrun.Incoming) int { return cmp.Compare(x.From, y.From) })
		b.algo.Pulse(api, p, batch)
	}
	b.maybeSafe(n, p)
}

func (b *betaNode) maybeSafe(n *async.Node, p int) {
	if b.sendAcked[p] > 0 || b.pulse < p {
		return
	}
	b.selfSafe[p] = true
	b.maybeReport(n, p)
}

// maybeReport sends the subtree-safe report up the BFS tree once this node
// is safe and all tree children reported.
func (b *betaNode) maybeReport(n *async.Node, p int) {
	if b.reportSent[p] || !b.selfSafe[p] {
		return
	}
	if b.childSafe[p] < len(b.tree.ChildrenOf(n.ID())) {
		return
	}
	b.reportSent[p] = true
	if par, ok := b.tree.ParentOf(n.ID()); ok {
		n.Send(par, async.Msg{Proto: protoBetaTree, Stage: p, Body: wire.Body{Kind: kindBetaSafeUp, A: int64(p)}})
		return
	}
	// Root: the whole network is safe for p; advance everyone.
	b.advance(n, p+1)
}

func (b *betaNode) advance(n *async.Node, next int) {
	if next > b.bound {
		return
	}
	for _, ch := range b.tree.ChildrenOf(n.ID()) {
		n.Send(ch, async.Msg{Proto: protoBetaTree, Stage: next, Body: wire.Body{Kind: kindBetaAdvance, A: int64(next)}})
	}
	b.runPulse(n, next)
}

// Recv implements async.Handler.
func (b *betaNode) Recv(n *async.Node, from graph.NodeID, m async.Msg) {
	switch m.Body.Kind {
	case kindAlgo:
		pulse, inner := m.Body.Unframe()
		b.recvd[pulse] = append(b.recvd[pulse], syncrun.Incoming{From: from, Body: inner})
	case kindBetaSafeUp:
		p := int(m.Body.A)
		b.childSafe[p]++
		b.maybeReport(n, p)
	case kindBetaAdvance:
		b.advance(n, int(m.Body.A))
	default:
		panic(fmt.Sprintf("core: beta node %d got payload kind %d", n.ID(), m.Body.Kind))
	}
}

// Ack implements async.Handler.
func (b *betaNode) Ack(n *async.Node, _ graph.NodeID, m async.Msg) {
	if m.Body.Kind != kindAlgo {
		return
	}
	pulse := int(m.Body.P)
	b.sendAcked[pulse]--
	b.maybeSafe(n, pulse)
}

type betaAPI struct {
	n     *async.Node
	b     *betaNode
	pulse int
	epoch int32
}

var _ syncrun.API = (*betaAPI)(nil)

func (x *betaAPI) ID() graph.NodeID            { return x.n.ID() }
func (x *betaAPI) Neighbors() []graph.Neighbor { return x.n.Neighbors() }
func (x *betaAPI) Degree() int                 { return x.n.Degree() }
func (x *betaAPI) Output(v any)                { x.n.Output(v) }
func (x *betaAPI) OutputBody(b wire.Body)      { x.n.OutputBody(b) }
func (x *betaAPI) HasOutput() bool             { return x.n.HasOutput() }
func (x *betaAPI) Arena() *wire.Arena          { return x.n.Arena() }

func (x *betaAPI) Send(to graph.NodeID, body wire.Body) {
	x.b.cs.mark(x.n, to, x.epoch, "beta")
	x.b.sendAcked[x.pulse]++
	x.n.Send(to, async.Msg{Proto: ProtoAlgo, Stage: x.pulse, Body: frameAlgo(x.pulse, body)})
}

// SynchronizeBeta runs the algorithm under β for exactly `bound` pulses.
func SynchronizeBeta(g *graph.Graph, bound int, adv async.Adversary,
	mk func(id graph.NodeID) syncrun.Handler) async.Result {
	if adv == nil {
		adv = async.SeededRandom{Seed: 1}
	}
	tree := cover.BFSTreeCluster(g, 0)
	sim := async.New(g, adv, func(id graph.NodeID) async.Handler {
		return NewBeta(mk(id), bound, tree)
	})
	return sim.Run()
}
