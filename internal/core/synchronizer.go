package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/reg"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// nodeCore is the per-node synchronizer engine. It owns the embedded
// synchronous algorithm, the execution-forest state (vnodes), and drives
// the per-cover-level registration and barrier modules.
type nodeCore struct {
	sched   *Schedule
	layered *cover.Layered
	algo    syncrun.Handler

	// Registration and barrier modules, indexed by cover level (nil
	// below level 5).
	regMods []*reg.Module
	barMods []*gather.Module

	// Per-pulse state, indexed by pulse 0..B: the vnode (nil until
	// created), the algorithm messages received at that pulse, and whether
	// Go-Ahead(pulse+1) closed that batch.
	vnodes      []*vnode
	recvd       [][]syncrun.Incoming
	recvdClosed []bool

	started        bool
	originator     bool
	initSends      []capturedSend
	barrierRegWait int
	cs             congestStamp
	api            captureAPI
}

type capturedSend struct {
	to   graph.NodeID
	body wire.Body
}

var _ async.Module = (*nodeCore)(nil)
var _ reg.Callbacks = (*nodeCore)(nil)
var _ gather.Callbacks = (*nodeCore)(nil)

// Start implements async.Module: run Init in capture mode, then join the
// originator barriers of §4.2 (one register-barrier and one
// dereg-barrier gather session per originator pulse).
func (c *nodeCore) Start(n *async.Node) {
	if c.started {
		return // registered under two protos; Mux starts each once
	}
	c.started = true
	c.algo.Init(c.newAPI(n, nil, true))
	c.originator = len(c.initSends) > 0
	c.barrierRegWait = len(c.sched.Barrier())
	for _, p := range c.sched.Barrier() {
		bm := c.barMods[c.sched.CoverLevel(p)]
		bm.MarkDone(n, barrierRegSession(p))
		if c.originator {
			bm.Begin(n, barrierDeregSession(p))
		} else {
			bm.MarkDone(n, barrierDeregSession(p))
		}
	}
	if c.barrierRegWait == 0 && c.originator {
		c.releaseOriginator(n)
	}
}

func barrierRegSession(p int) int   { return 2 * p }
func barrierDeregSession(p int) int { return 2*p + 1 }

// releaseOriginator creates the pulse-0 vnode and sends the buffered Init
// messages (all originator-pulse registrations are confirmed).
func (c *nodeCore) releaseOriginator(n *async.Node) {
	v := newVnode(c.sched, 0)
	c.vnodes[0] = v
	v.evaluated = true
	for _, s := range c.initSends {
		c.sendAlgo(n, v, s.to, s.body)
	}
	v.sentAny = true
	c.initSends = nil
	if c.vnodes[1] == nil {
		c.createVnode(n, 1, -1, true)
	}
	c.afterAnswersMaybe(n, v)
}

// createVnode tentatively instantiates (me, p) with the given parent and
// emits the creation report (q = p, ready) plus the chosen reply.
func (c *nodeCore) createVnode(n *async.Node, p int, parentPhys graph.NodeID, parentSelf bool) *vnode {
	if p > c.sched.B {
		panic(fmt.Sprintf("core: node %d reached pulse %d beyond bound %d", n.ID(), p, c.sched.B))
	}
	v := newVnode(c.sched, p)
	v.parentPhys = parentPhys
	v.parentSelf = parentSelf
	v.hasParent = true
	c.vnodes[p] = v
	if parentSelf {
		parent := c.vnodes[p-1]
		parent.selfChild = true
		c.onChildStatus(n, parent, statusMsg{Q: p, ChildPulse: p, Ready: true}, -1, true)
	} else {
		n.Send(parentPhys, async.Msg{Proto: ProtoAlgo, Stage: p - 1, Body: encReply(replyMsg{Pulse: p - 1, Chosen: true})})
		n.Send(parentPhys, async.Msg{Proto: ProtoTree, Stage: p, Body: encStatus(statusMsg{Q: p, ChildPulse: p, Ready: true})})
	}
	return v
}

// sendAlgo transmits one synchronous-algorithm message of pulse v.pulse,
// framed as kindAlgo (the pulse rides in P, the payload stays in place).
func (c *nodeCore) sendAlgo(n *async.Node, v *vnode, to graph.NodeID, body wire.Body) {
	v.outstandingReplies++
	n.Send(to, async.Msg{Proto: ProtoAlgo, Stage: v.pulse, Body: frameAlgo(v.pulse, body)})
}

// Recv implements async.Module for ProtoAlgo and ProtoTree.
func (c *nodeCore) Recv(n *async.Node, from graph.NodeID, m async.Msg) {
	switch m.Body.Kind {
	case kindAlgo:
		pulse, inner := m.Body.Unframe()
		c.onAlgoMsg(n, from, pulse, inner)
	case kindReply:
		c.onReply(n, from, decReply(m.Body))
	case kindStatus:
		body := decStatus(m.Body)
		parent := c.vnodes[body.ChildPulse-1]
		if parent == nil {
			panic(fmt.Sprintf("core: node %d got report for absent vnode %d", n.ID(), body.ChildPulse-1))
		}
		c.onChildStatus(n, parent, body, from, false)
	case kindGA:
		body := decGA(m.Body)
		v := c.vnodes[body.ChildPulse]
		if v == nil {
			panic(fmt.Sprintf("core: node %d got GA(%d) for absent vnode %d", n.ID(), body.Q, body.ChildPulse))
		}
		c.onGA(n, v, body.Q)
	default:
		panic(fmt.Sprintf("core: node %d got unknown payload kind %d", n.ID(), m.Body.Kind))
	}
}

// Ack implements async.Module.
func (c *nodeCore) Ack(*async.Node, graph.NodeID, async.Msg) {}

func (c *nodeCore) onAlgoMsg(n *async.Node, from graph.NodeID, pulse int, body wire.Body) {
	p := pulse + 1
	if c.recvdClosed[pulse] {
		panic(fmt.Sprintf("core: node %d got pulse-%d message after Go-Ahead(%d) — synchronization broken", n.ID(), pulse, p))
	}
	// The batch is retained until Go-Ahead(p) evaluates the pulse — long
	// past the carrying message's lifecycle — which is why frameAlgo
	// rejects seg-carrying algorithm payloads at the send side.
	c.recvd[pulse] = append(c.recvd[pulse], syncrun.Incoming{From: from, Body: body})
	if c.vnodes[p] != nil {
		// Already triggered: decline.
		n.Send(from, async.Msg{Proto: ProtoAlgo, Stage: pulse, Body: encReply(replyMsg{Pulse: pulse, Chosen: false})})
		return
	}
	c.createVnode(n, p, from, false)
}

func (c *nodeCore) onReply(n *async.Node, from graph.NodeID, r replyMsg) {
	v := c.vnodes[r.Pulse]
	if v == nil {
		panic(fmt.Sprintf("core: node %d got reply for absent vnode %d", n.ID(), r.Pulse))
	}
	if r.Chosen {
		v.childPhys = append(v.childPhys, from)
	}
	v.outstandingReplies--
	if v.outstandingReplies < 0 {
		panic(fmt.Sprintf("core: node %d got surplus reply for pulse %d", n.ID(), r.Pulse))
	}
	c.afterAnswersMaybe(n, v)
}

// afterAnswersMaybe fires the q-resolutions that were waiting for the
// children set to become final.
func (c *nodeCore) afterAnswersMaybe(n *async.Node, v *vnode) {
	if !v.answersDone() {
		return
	}
	for i := range v.q {
		c.tryResolve(n, v, &v.q[i])
	}
}

func (c *nodeCore) onChildStatus(n *async.Node, v *vnode, s statusMsg, fromPhys graph.NodeID, fromSelf bool) {
	qs := v.qstate(s.Q)
	qs.reports++
	if s.Ready {
		qs.anyReady = true
		if fromSelf {
			qs.readySelf = true
		} else {
			qs.readyPhys = append(qs.readyPhys, fromPhys)
		}
	}
	c.tryResolve(n, v, qs)
}

// tryResolve completes the q-status at v once answers and child reports
// are all in, then performs the §4.1.2 actions: deregister (consumer),
// register-and-gate (prev(q) pulse), and forward the report.
func (c *nodeCore) tryResolve(n *async.Node, v *vnode, qs *qstate) {
	if qs.resolved || !v.answersDone() || int(qs.reports) < v.childCount() {
		return
	}
	if int(qs.reports) > v.childCount() {
		panic(fmt.Sprintf("core: node %d pulse %d got %d reports for %d children (q=%d)",
			n.ID(), v.pulse, qs.reports, v.childCount(), qs.q))
	}
	qs.resolved = true
	qs.ready = qs.anyReady

	if c.sched.Consumer(v.pulse, qs.q) {
		c.consumeStatus(n, v, qs)
		return
	}
	sessions := c.sched.RegisterSessions(v.pulse, qs.q)
	if qs.ready && len(sessions) > 0 {
		qs.gateOutstanding = int32(len(sessions))
		for _, p := range sessions {
			c.registerSession(n, v, p)
		}
		return
	}
	c.forwardStatus(n, v, qs)
}

// registerSession joins every cluster of session p's cover level.
func (c *nodeCore) registerSession(n *async.Node, v *vnode, p int) {
	lvl := c.sched.CoverLevel(p)
	ids := c.layered.Level(lvl).MemberOf(n.ID())
	if len(ids) == 0 {
		panic(fmt.Sprintf("core: node %d is in no cluster at level %d", n.ID(), lvl))
	}
	v.qstate(p).regOutstanding = int32(len(ids))
	for _, cid := range ids {
		c.regMods[lvl].Register(n, cid, p)
	}
}

// consumeStatus handles resolution at the convergecast top (π = prev2(q)):
// deregister session q (wave pulses) or complete the dereg barrier
// (originator pulses).
func (c *nodeCore) consumeStatus(n *async.Node, v *vnode, qs *qstate) {
	q := qs.q
	if v.pulse == 0 {
		if !c.sched.IsBarrier(q) {
			panic(fmt.Sprintf("core: pulse-0 consumer for non-barrier pulse %d", q))
		}
		c.barMods[c.sched.CoverLevel(q)].MarkDone(n, barrierDeregSession(q))
		return
	}
	if !qs.registered {
		// Never registered: prev(q) was empty below us, so q is too; no
		// Go-Ahead is owed to this subtree.
		if qs.ready {
			panic(fmt.Sprintf("core: node %d pulse %d resolved q=%d ready without registration", n.ID(), v.pulse, q))
		}
		return
	}
	lvl := c.sched.CoverLevel(q)
	ids := c.layered.Level(lvl).MemberOf(n.ID())
	qs.gaOutstanding = int32(len(ids))
	for _, cid := range ids {
		c.regMods[lvl].Deregister(n, cid, q)
	}
}

// forwardStatus sends the resolved q-report to the execution-forest parent.
func (c *nodeCore) forwardStatus(n *async.Node, v *vnode, qs *qstate) {
	if qs.forwarded {
		return
	}
	qs.forwarded = true
	report := statusMsg{Q: qs.q, ChildPulse: v.pulse, Ready: qs.ready}
	if v.parentSelf {
		c.onChildStatus(n, c.vnodes[v.pulse-1], report, -1, true)
		return
	}
	n.Send(v.parentPhys, async.Msg{Proto: ProtoTree, Stage: qs.q, Body: encStatus(report)})
}

// onGA handles Go-Ahead(q) at vnode v (pulse <= q): evaluate when this is
// the target pulse, otherwise route down to q-ready children.
func (c *nodeCore) onGA(n *async.Node, v *vnode, q int) {
	if v.pulse == q {
		c.evaluate(n, v)
		return
	}
	c.propagateGA(n, v, q)
}

func (c *nodeCore) propagateGA(n *async.Node, v *vnode, q int) {
	qs := v.qstate(q)
	if !qs.resolved {
		panic(fmt.Sprintf("core: node %d pulse %d forwarding GA(%d) before resolution", n.ID(), v.pulse, q))
	}
	for _, w := range qs.readyPhys {
		n.Send(w, async.Msg{Proto: ProtoTree, Stage: q, Body: encGA(gaMsg{Q: q, ChildPulse: v.pulse + 1})})
	}
	if qs.readySelf {
		c.onGA(n, c.vnodes[v.pulse+1], q)
	}
}

// evaluate runs the synchronous algorithm's pulse at v (Go-Ahead(pulse)
// arrived: every pulse <= v.pulse-1 message is in hand, Lemma 5.1).
func (c *nodeCore) evaluate(n *async.Node, v *vnode) {
	if v.evaluated {
		panic(fmt.Sprintf("core: node %d pulse %d evaluated twice", n.ID(), v.pulse))
	}
	v.evaluated = true
	p := v.pulse
	batch := c.recvd[p-1]
	c.recvd[p-1] = nil
	c.recvdClosed[p-1] = true
	slices.SortFunc(batch, func(a, b syncrun.Incoming) int { return cmp.Compare(a.From, b.From) })
	api := c.newAPI(n, v, false)
	c.algo.Pulse(api, p, batch)
	if v.sentAny {
		if p == c.sched.B {
			panic(fmt.Sprintf("core: node %d sent at pulse %d = bound — bound too small", n.ID(), p))
		}
		if c.vnodes[p+1] == nil {
			c.createVnode(n, p+1, -1, true)
		}
	}
	c.afterAnswersMaybe(n, v)
}

// Registered implements reg.Callbacks: one cluster of a wave session
// confirmed; when the last does, the gated q-report is released.
func (c *nodeCore) Registered(n *async.Node, _ cover.ClusterID, session int) {
	v := c.vnodes[prevPrev(session)]
	ss := v.qstate(session)
	ss.regOutstanding--
	if ss.regOutstanding > 0 {
		return
	}
	ss.registered = true
	qs := v.qstate(prevOf(session))
	qs.gateOutstanding--
	if qs.gateOutstanding == 0 {
		c.forwardStatus(n, v, qs)
	}
}

// GoAhead implements reg.Callbacks: one cluster's Go-Ahead for a wave
// session; when the last arrives, GA(session) flows down the forest.
func (c *nodeCore) GoAhead(n *async.Node, _ cover.ClusterID, session int) {
	v := c.vnodes[prevPrev(session)]
	ss := v.qstate(session)
	ss.gaOutstanding--
	if ss.gaOutstanding > 0 {
		return
	}
	c.propagateGA(n, v, session)
}

// NeighborhoodDone implements gather.Callbacks for the originator barriers.
func (c *nodeCore) NeighborhoodDone(n *async.Node, session int) {
	if session%2 == 0 { // register barrier
		c.barrierRegWait--
		if c.barrierRegWait == 0 && c.originator {
			c.releaseOriginator(n)
		}
		return
	}
	// Dereg barrier: Go-Ahead(p) for this originator.
	if !c.originator {
		return
	}
	p := (session - 1) / 2
	c.propagateGA(n, c.vnodes[0], p)
}
