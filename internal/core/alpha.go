package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// AlphaSynchronizer is Awerbuch's α synchronizer (Appendix A): every node
// generates every pulse 1..B. A node is safe for pulse p once all its
// pulse-p messages are acknowledged (the simulator's link acks already
// provide this), after which it tells every neighbor SAFE(p); a node
// generates pulse p+1 once it holds SAFE(p) from all neighbors.
//
// Time overhead is O(1) per pulse — optimal — but the safety traffic costs
// Θ(m) messages per pulse, i.e. M(A') = M(A) + Θ(T(A)·m): the blow-up
// experiment E8 measures exactly this term.
//
// All per-pulse state is bound-indexed slices allocated once at
// construction (the pulse bound is known up front), not maps.
type alphaNode struct {
	algo  syncrun.Handler
	bound int

	pulse     int
	recvd     [][]syncrun.Incoming
	safeCnt   []int // pulse -> neighbors that sent SAFE(p)
	sendAcked []int // pulse -> outstanding acks for algorithm sends
	selfSafe  []bool
	sentSafe  []bool
	cs        congestStamp
	api       alphaAPI // the current pulse's API; evaluations never nest
}

const protoAlphaSafe async.Proto = 3

var _ async.Handler = (*alphaNode)(nil)

// NewAlpha builds the α-synchronized handler for one node.
func NewAlpha(algo syncrun.Handler, bound int) async.Handler {
	return &alphaNode{
		algo:      algo,
		bound:     bound,
		recvd:     make([][]syncrun.Incoming, bound+1),
		safeCnt:   make([]int, bound+1),
		sendAcked: make([]int, bound+1),
		selfSafe:  make([]bool, bound+1),
		sentSafe:  make([]bool, bound+1),
	}
}

// Init implements async.Handler: run pulse 0.
func (a *alphaNode) Init(n *async.Node) {
	a.runPulse(n, 0)
}

func (a *alphaNode) runPulse(n *async.Node, p int) {
	a.pulse = p
	a.api = alphaAPI{n: n, a: a, pulse: p, epoch: a.cs.begin(n.Degree())}
	api := &a.api
	if p == 0 {
		a.algo.Init(api)
	} else {
		batch := a.recvd[p-1]
		slices.SortFunc(batch, func(x, y syncrun.Incoming) int { return cmp.Compare(x.From, y.From) })
		a.algo.Pulse(api, p, batch)
	}
	a.maybeSafe(n, p)
}

// maybeSafe declares this node safe for pulse p once its pulse-p sends are
// all acknowledged, then floods SAFE(p) to neighbors.
func (a *alphaNode) maybeSafe(n *async.Node, p int) {
	if a.sentSafe[p] || a.sendAcked[p] > 0 {
		return
	}
	a.sentSafe[p] = true
	a.selfSafe[p] = true
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, async.Msg{Proto: protoAlphaSafe, Stage: p, Body: wire.Body{Kind: kindAlphaSafe, A: int64(p)}})
	}
	a.maybeAdvance(n, p)
}

func (a *alphaNode) maybeAdvance(n *async.Node, p int) {
	if a.pulse != p || p+1 > a.bound {
		return
	}
	if !a.selfSafe[p] || a.safeCnt[p] < n.Degree() {
		return
	}
	a.runPulse(n, p+1)
}

// Recv implements async.Handler.
func (a *alphaNode) Recv(n *async.Node, from graph.NodeID, m async.Msg) {
	switch m.Body.Kind {
	case kindAlgo:
		pulse, inner := m.Body.Unframe()
		a.recvd[pulse] = append(a.recvd[pulse], syncrun.Incoming{From: from, Body: inner})
	case kindAlphaSafe:
		p := int(m.Body.A)
		a.safeCnt[p]++
		a.maybeAdvance(n, p)
	default:
		panic(fmt.Sprintf("core: alpha node %d got payload kind %d", n.ID(), m.Body.Kind))
	}
}

// Ack implements async.Handler: algorithm-message acks gate safety.
func (a *alphaNode) Ack(n *async.Node, _ graph.NodeID, m async.Msg) {
	if m.Body.Kind != kindAlgo {
		return
	}
	pulse := int(m.Body.P)
	a.sendAcked[pulse]--
	a.maybeSafe(n, pulse)
}

// alphaAPI is the synchronous API bound to one α pulse.
type alphaAPI struct {
	n     *async.Node
	a     *alphaNode
	pulse int
	epoch int32
}

var _ syncrun.API = (*alphaAPI)(nil)

func (x *alphaAPI) ID() graph.NodeID            { return x.n.ID() }
func (x *alphaAPI) Neighbors() []graph.Neighbor { return x.n.Neighbors() }
func (x *alphaAPI) Degree() int                 { return x.n.Degree() }
func (x *alphaAPI) Output(v any)                { x.n.Output(v) }
func (x *alphaAPI) OutputBody(b wire.Body)      { x.n.OutputBody(b) }
func (x *alphaAPI) HasOutput() bool             { return x.n.HasOutput() }
func (x *alphaAPI) Arena() *wire.Arena          { return x.n.Arena() }

func (x *alphaAPI) Send(to graph.NodeID, body wire.Body) {
	x.a.cs.mark(x.n, to, x.epoch, "alpha")
	x.a.sendAcked[x.pulse]++
	x.n.Send(to, async.Msg{Proto: ProtoAlgo, Stage: x.pulse, Body: frameAlgo(x.pulse, body)})
}

// SynchronizeAlpha runs the algorithm under the α synchronizer for exactly
// `bound` pulses.
func SynchronizeAlpha(g *graph.Graph, bound int, adv async.Adversary,
	mk func(id graph.NodeID) syncrun.Handler) async.Result {
	if adv == nil {
		adv = async.SeededRandom{Seed: 1}
	}
	sim := async.New(g, adv, func(id graph.NodeID) async.Handler {
		return NewAlpha(mk(id), bound)
	})
	return sim.Run()
}
