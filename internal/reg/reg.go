// Package reg implements the cluster registration abstraction of §3.2
// (Definition 3.3) with the paper's dirty/waiting edge-marking waves:
//
//   - R(v): registration marks the path from v to the cluster root dirty.
//   - D(v): deregistration converts dirty marks to waiting marks upward
//     until it hits another dirty subtree, the root, or a node whose own
//     client is still mid-registration.
//   - G(r): when the root's last dirty child edge clears, a Go-Ahead wave
//     travels down waiting edges, freeing deregistered clients.
//
// The module provides Register Guarantees 1 and 2 (Lemmas 3.4, 3.5): a
// client that receives Go-Ahead knows every client that registered before
// it deregistered has already deregistered, each operation costs O(h) time
// and messages on an h-height cluster tree, and Go-Aheads arrive within
// O(h) after the last deregistration.
//
// One Module instance per node serves every (cluster, session) pair of one
// cover; sessions are independent state machines (the BFS uses one session
// per pulse). The fix the paper makes to [APSPS92] is reproduced here: a
// node whose own registration is in flight ("registering") blocks a
// passing deregistration wave exactly like a registered node does.
package reg

import (
	"fmt"
	"slices"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/wire"
)

// localState tracks this node's own client within one (cluster, session).
type localState int8

const (
	idle localState = iota
	registering
	registered
	deregistered
	free
)

// edge marks, parent's view of the edge to a child.
type edgeMark int8

const (
	markNone edgeMark = iota
	markDirty
	markWaiting
)

// Wire kinds of registration traffic (namespace: this module's proto).
// Every payload carries A = cluster, B = session.
const (
	kindRegUp wire.Kind = iota + 1
	kindRegDone
	kindDeregUp
	kindGoAhead
)

// encPayload encodes one registration message.
func encPayload(k wire.Kind, c cover.ClusterID, session int) wire.Body {
	return wire.Body{Kind: k, A: int64(c), B: int64(session)}
}

// decPayload decodes the cluster and session words.
func decPayload(b wire.Body) (cover.ClusterID, int) {
	return cover.ClusterID(b.A), int(b.B)
}

// Callbacks receives client-visible events.
type Callbacks interface {
	// Registered fires when this node's registration in (c, session)
	// completes (the path to the root is dirty).
	Registered(n *async.Node, c cover.ClusterID, session int)
	// GoAhead fires when this node, having deregistered, receives the
	// cluster's Go-Ahead.
	GoAhead(n *async.Node, c cover.ClusterID, session int)
}

// state is one (cluster, session) registration machine at this node.
type state struct {
	local    localState
	finished bool
	pending  bool // R(me) invocation in flight to parent
	upDirty  bool // my view of the edge to my cluster parent
	invokers []graph.NodeID
	// childMark is indexed by the child's position in ChildrenOf(me).
	childMark []edgeMark
}

// slot is one session at this node: one state per cluster tree the node
// is in, indexed by the cluster's position in cov.TreeOf(me). A slot
// neither moves nor resizes once created, so a *state held across a
// callback stays valid when the callback opens another session.
type slot struct {
	id     int
	states []state
}

// Module is the per-node registration engine for one cover. It implements
// async.Module; route one Proto to it.
type Module struct {
	proto   async.Proto
	cov     *cover.Cover
	cb      Callbacks
	stageOf func(session int) int
	me      graph.NodeID // this node, known once the first slot exists
	slots   []*slot      // in creation order
	// Slot storage, carved by wire.Carve.
	spareSlots  []slot
	spareStates []state
	spareMarks  []edgeMark
}

var _ async.Module = (*Module)(nil)

// New creates the per-node module. stageOf maps a session to the link
// scheduling stage (Lemma 2.5); pass nil for all-stage-zero.
func New(proto async.Proto, cov *cover.Cover, cb Callbacks, stageOf func(int) int) *Module {
	if stageOf == nil {
		stageOf = func(int) int { return 0 }
	}
	return &Module{proto: proto, cov: cov, cb: cb, stageOf: stageOf, me: -1}
}

// Start implements async.Module.
func (m *Module) Start(*async.Node) {}

// Ack implements async.Module.
func (m *Module) Ack(*async.Node, graph.NodeID, async.Msg) {}

// find returns the session's slot, or nil. The live sessions are the
// newest, so the scan runs backwards.
func (m *Module) find(session int) *slot {
	for i := len(m.slots) - 1; i >= 0; i-- {
		if m.slots[i].id == session {
			return m.slots[i]
		}
	}
	return nil
}

// newSlot lays out a session: one state per tree of m.me, their child
// marks carved from one shared array. The root is always finished.
func (m *Module) newSlot(session int) *slot {
	tree := m.cov.TreeOf(m.me)
	sl := &wire.Carve(&m.spareSlots, 1)[0]
	sl.id, sl.states = session, wire.Carve(&m.spareStates, len(tree))
	total := 0
	for _, c := range tree {
		total += len(m.cov.Cluster(c).ChildrenOf(m.me))
	}
	marks := wire.Carve(&m.spareMarks, total)
	for i, c := range tree {
		cl := m.cov.Cluster(c)
		k := len(cl.ChildrenOf(m.me))
		sl.states[i].childMark, marks = marks[:k:k], marks[k:]
		sl.states[i].finished = cl.Root == m.me
	}
	return sl
}

func (m *Module) state(n *async.Node, c cover.ClusterID, session int) *state {
	sl := m.find(session)
	if sl == nil {
		m.me = n.ID()
		sl = m.newSlot(session)
		m.slots = append(m.slots, sl)
	}
	i := m.cov.TreePos(n.ID(), c)
	if i < 0 {
		panic(fmt.Sprintf("reg: node %d is not in the tree of cluster %d", n.ID(), c))
	}
	return &sl.states[i]
}

// childPos returns the position of child among n's children in c.
func (m *Module) childPos(n *async.Node, c cover.ClusterID, child graph.NodeID) int {
	j := m.cov.Cluster(c).ChildPos(n.ID(), child)
	if j < 0 {
		panic(fmt.Sprintf("reg: node %d got tree traffic from non-child %d in cluster %d", n.ID(), child, c))
	}
	return j
}

func (m *Module) isRoot(n *async.Node, c cover.ClusterID) bool {
	return m.cov.Cluster(c).Root == n.ID()
}

func (m *Module) parent(n *async.Node, c cover.ClusterID) graph.NodeID {
	p, ok := m.cov.Cluster(c).ParentOf(n.ID())
	if !ok {
		panic(fmt.Sprintf("reg: node %d has no parent in cluster %d", n.ID(), c))
	}
	return p
}

func (m *Module) send(n *async.Node, to graph.NodeID, kind wire.Kind, c cover.ClusterID, session int) {
	n.Send(to, async.Msg{
		Proto: m.proto,
		Stage: m.stageOf(session),
		Body:  encPayload(kind, c, session),
	})
}

// Register starts this node's registration in cluster c for the session.
// The node must be a tree node of c. Callbacks.Registered fires when done.
func (m *Module) Register(n *async.Node, c cover.ClusterID, session int) {
	st := m.state(n, c, session)
	if st.local != idle {
		panic(fmt.Sprintf("reg: node %d double-registers in cluster %d session %d", n.ID(), c, session))
	}
	st.local = registering
	if st.finished {
		st.local = registered
		m.cb.Registered(n, c, session)
		return
	}
	m.invokeRUp(n, c, session, st)
}

// invokeRUp sends (or relies on an already in-flight) R invocation to the
// parent, marking the parent edge dirty.
func (m *Module) invokeRUp(n *async.Node, c cover.ClusterID, session int, st *state) {
	if st.pending {
		return // an R(me) is already traveling; its completion serves all
	}
	st.pending = true
	st.upDirty = true
	m.send(n, m.parent(n, c), kindRegUp, c, session)
}

// Deregister ends this node's participation; Callbacks.GoAhead fires when
// the cluster's Go-Ahead arrives.
func (m *Module) Deregister(n *async.Node, c cover.ClusterID, session int) {
	st := m.state(n, c, session)
	if st.local != registered {
		panic(fmt.Sprintf("reg: node %d deregisters in cluster %d session %d without being registered", n.ID(), c, session))
	}
	st.local = deregistered
	m.runD(n, c, session, st)
}

// Recv implements async.Module.
func (m *Module) Recv(n *async.Node, from graph.NodeID, msg async.Msg) {
	c, session := decPayload(msg.Body)
	st := m.state(n, c, session)
	switch msg.Body.Kind {
	case kindRegUp:
		m.onRegUp(n, from, c, session, st)
	case kindRegDone:
		m.onRegDone(n, c, session, st)
	case kindDeregUp:
		m.onDeregUp(n, from, c, session, st)
	case kindGoAhead:
		m.runG(n, c, session, st)
	default:
		panic(fmt.Sprintf("reg: unknown kind %d", msg.Body.Kind))
	}
}

func (m *Module) onRegUp(n *async.Node, child graph.NodeID, c cover.ClusterID, session int, st *state) {
	st.childMark[m.childPos(n, c, child)] = markDirty
	if st.finished {
		m.send(n, child, kindRegDone, c, session)
		return
	}
	st.invokers = append(st.invokers, child)
	m.invokeRUp(n, c, session, st)
}

func (m *Module) onRegDone(n *async.Node, c cover.ClusterID, session int, st *state) {
	st.finished = true
	st.pending = false
	for _, ch := range st.invokers {
		m.send(n, ch, kindRegDone, c, session)
	}
	st.invokers = st.invokers[:0]
	if st.local == registering {
		st.local = registered
		m.cb.Registered(n, c, session)
	}
}

func (m *Module) onDeregUp(n *async.Node, child graph.NodeID, c cover.ClusterID, session int, st *state) {
	j := m.childPos(n, c, child)
	if st.childMark[j] != markDirty {
		panic(fmt.Sprintf("reg: node %d got DeregUp on non-dirty edge from %d", n.ID(), child))
	}
	st.childMark[j] = markWaiting
	if m.isRoot(n, c) {
		m.maybeIssueGo(n, c, session, st)
		return
	}
	m.runD(n, c, session, st)
}

// runD is the deregistration wave step D(me).
func (m *Module) runD(n *async.Node, c cover.ClusterID, session int, st *state) {
	if slices.Contains(st.childMark, markDirty) {
		return
	}
	if st.local == registering || st.local == registered {
		// The paper's fix: a node whose own registration is pending or
		// live keeps the path dirty; the wave stops here.
		return
	}
	if m.isRoot(n, c) {
		m.maybeIssueGo(n, c, session, st)
		return
	}
	if !st.upDirty {
		panic(fmt.Sprintf("reg: D at node %d with non-dirty parent edge", n.ID()))
	}
	st.upDirty = false
	st.finished = false
	m.send(n, m.parent(n, c), kindDeregUp, c, session)
}

// maybeIssueGo is the root's Go-Ahead trigger.
func (m *Module) maybeIssueGo(n *async.Node, c cover.ClusterID, session int, st *state) {
	if slices.Contains(st.childMark, markDirty) {
		return
	}
	m.runG(n, c, session, st)
}

// runG is the Go-Ahead wave step G(me): free the local client if it is
// waiting, then forward through waiting child edges (consuming the marks).
func (m *Module) runG(n *async.Node, c cover.ClusterID, session int, st *state) {
	if st.local == deregistered {
		st.local = free
		m.cb.GoAhead(n, c, session)
	}
	children := m.cov.Cluster(c).ChildrenOf(n.ID())
	for j, mark := range st.childMark {
		if mark == markWaiting {
			st.childMark[j] = markNone
			m.send(n, children[j], kindGoAhead, c, session)
		}
	}
}

// LocalDone reports whether this node's client in (c, session) has been
// freed (received its Go-Ahead). Tests use it for final-state checks.
func (m *Module) LocalDone(c cover.ClusterID, session int) bool {
	sl := m.find(session)
	if sl == nil {
		return false
	}
	i := m.cov.TreePos(m.me, c)
	return i >= 0 && sl.states[i].local == free
}
