// Package gather implements the information-collecting abstraction of §3.1
// (Theorems 3.1 and 3.2): given a sparse d-cover and a process P that every
// node eventually finishes locally, each node learns when every node in its
// d-neighborhood (or d·ℓ-neighborhood, via chained stages) is done with P.
//
// Per cluster the module runs a convergecast up the cluster tree — a node
// reports once it is locally done and all its tree children have reported —
// followed by a confirmation broadcast from the root. A member node's
// neighborhood is done once every cluster containing it has confirmed,
// because any node within distance d shares at least one cluster with it.
//
// Cost per session: O(1) messages per tree edge per cluster, i.e.
// O(m·log⁴n) messages and O(d·polylog) isolated time (Theorem 3.1).
package gather

import (
	"fmt"
	"slices"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Callbacks receives gather completions.
type Callbacks interface {
	// NeighborhoodDone fires on a member node when, for the given session,
	// every cluster containing it has confirmed cluster-wide completion.
	NeighborhoodDone(n *async.Node, session int)
}

// Wire kinds of gather traffic (namespace: this module's proto). Every
// payload carries A = cluster, B = session.
const (
	kindDoneUp wire.Kind = iota + 1
	kindConfirmDown
)

func encPayload(k wire.Kind, c cover.ClusterID, session int) wire.Body {
	return wire.Body{Kind: k, A: int64(c), B: int64(session)}
}

func decPayload(b wire.Body) (cover.ClusterID, int) {
	return cover.ClusterID(b.A), int(b.B)
}

// clusterState is one (cluster, session) convergecast at this node.
type clusterState struct {
	began     bool
	localDone bool
	reported  bool
	confirmed bool
	// childDone is indexed by the child's position in ChildrenOf(me).
	childDone []bool
}

// slot is one session at this node: the callback state plus one
// convergecast per cluster tree the node is in, indexed by the cluster's
// position in cov.TreeOf(me). A slot neither moves nor resizes once
// created, so a *slot or *clusterState held across a callback stays valid
// when the callback re-enters the module and opens another session.
type slot struct {
	id        int
	began     bool
	markedAll bool
	confirmed int  // clusters containing me that confirmed
	fired     bool // callback delivered
	clusters  []clusterState
}

// Module is the per-node gather engine for one cover.
type Module struct {
	proto   async.Proto
	cov     *cover.Cover
	cb      Callbacks
	stageOf func(session int) int
	me      graph.NodeID // this node, known once the first slot exists
	slots   []*slot      // in creation order
	// Slot storage, carved by wire.Carve.
	spareSlots  []slot
	spareStates []clusterState
	spareFlags  []bool
}

var _ async.Module = (*Module)(nil)

// New creates the per-node module. stageOf maps sessions to link stages
// (nil = all zero).
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

// find returns the session's slot, or nil. A module holds few sessions
// and the live ones are the newest, so the scan runs backwards.
func (m *Module) find(session int) *slot {
	for i := len(m.slots) - 1; i >= 0; i-- {
		if m.slots[i].id == session {
			return m.slots[i]
		}
	}
	return nil
}

// session returns the session's slot, creating it on first use.
func (m *Module) session(n *async.Node, session int) *slot {
	if sl := m.find(session); sl != nil {
		return sl
	}
	m.me = n.ID()
	sl := m.newSlot(session)
	m.slots = append(m.slots, sl)
	return sl
}

// newSlot lays out a session: one clusterState per tree of m.me, their
// child flags carved from one shared array.
func (m *Module) newSlot(session int) *slot {
	tree := m.cov.TreeOf(m.me)
	sl := &wire.Carve(&m.spareSlots, 1)[0]
	sl.id, sl.clusters = session, wire.Carve(&m.spareStates, len(tree))
	total := 0
	for _, c := range tree {
		total += len(m.cov.Cluster(c).ChildrenOf(m.me))
	}
	flags := wire.Carve(&m.spareFlags, total)
	for i, c := range tree {
		k := len(m.cov.Cluster(c).ChildrenOf(m.me))
		sl.clusters[i].childDone, flags = flags[:k:k], flags[k:]
	}
	return sl
}

// Begin announces the session at this node: every cluster tree this node
// participates in becomes live here. Nonterminal nodes (pure relays) count
// as locally done. Idempotent. Every tree participant must eventually call
// Begin (or MarkDone) for every session, or convergecasts stall.
func (m *Module) Begin(n *async.Node, session int) {
	sl := m.session(n, session)
	if sl.began {
		return
	}
	sl.began = true
	for i, cid := range m.cov.TreeOf(n.ID()) {
		st := &sl.clusters[i]
		st.began = true
		if !m.cov.Cluster(cid).Has(n.ID()) {
			st.localDone = true // nonterminals have no process to finish
		}
		m.maybeReport(n, sl, cid, st)
	}
	// A node in no cluster at all has a trivially-done neighborhood.
	if len(m.cov.MemberOf(n.ID())) == 0 {
		m.maybeFire(n, sl)
	}
}

// MarkDone records that this node's local process P for the session is
// finished. Implies Begin.
func (m *Module) MarkDone(n *async.Node, session int) {
	m.Begin(n, session)
	sl := m.find(session)
	if sl.markedAll {
		return
	}
	sl.markedAll = true
	for _, cid := range m.cov.MemberOf(n.ID()) {
		st := &sl.clusters[m.cov.TreePos(n.ID(), cid)]
		st.localDone = true
		m.maybeReport(n, sl, cid, st)
	}
	m.maybeFire(n, sl)
}

// Recv implements async.Module.
func (m *Module) Recv(n *async.Node, from graph.NodeID, msg async.Msg) {
	c, session := decPayload(msg.Body)
	sl := m.session(n, session)
	i := m.cov.TreePos(n.ID(), c)
	if i < 0 {
		panic(fmt.Sprintf("gather: node %d got traffic for cluster %d outside its trees", n.ID(), c))
	}
	st := &sl.clusters[i]
	switch msg.Body.Kind {
	case kindDoneUp:
		j := m.cov.Cluster(c).ChildPos(n.ID(), from)
		if j < 0 {
			panic(fmt.Sprintf("gather: node %d got a report from non-child %d in cluster %d", n.ID(), from, c))
		}
		st.childDone[j] = true
		m.maybeReport(n, sl, c, st)
	case kindConfirmDown:
		m.confirm(n, sl, c, st)
	default:
		panic(fmt.Sprintf("gather: unknown kind %d", msg.Body.Kind))
	}
}

// maybeReport sends the subtree-done report upward (or starts the
// confirmation broadcast at the root) once this node is locally done, has
// begun, and has heard from every tree child.
func (m *Module) maybeReport(n *async.Node, sl *slot, c cover.ClusterID, st *clusterState) {
	if st.reported || !st.began || !st.localDone {
		return
	}
	if slices.Contains(st.childDone, false) {
		return
	}
	st.reported = true
	cl := m.cov.Cluster(c)
	if cl.Root == n.ID() {
		m.confirm(n, sl, c, st)
		return
	}
	par, _ := cl.ParentOf(n.ID())
	n.Send(par, async.Msg{Proto: m.proto, Stage: m.stageOf(sl.id), Body: encPayload(kindDoneUp, c, sl.id)})
}

// confirm marks the cluster complete at this node and forwards the
// broadcast to tree children.
func (m *Module) confirm(n *async.Node, sl *slot, c cover.ClusterID, st *clusterState) {
	if st.confirmed {
		return
	}
	st.confirmed = true
	cl := m.cov.Cluster(c)
	for _, ch := range cl.ChildrenOf(n.ID()) {
		n.Send(ch, async.Msg{Proto: m.proto, Stage: m.stageOf(sl.id), Body: encPayload(kindConfirmDown, c, sl.id)})
	}
	if cl.Has(n.ID()) {
		sl.confirmed++
		m.maybeFire(n, sl)
	}
}

// maybeFire delivers NeighborhoodDone when every containing cluster has
// confirmed and the local process finished (a member's own completion is
// part of "everyone within distance d is done").
func (m *Module) maybeFire(n *async.Node, sl *slot) {
	if sl.fired {
		return
	}
	member := m.cov.MemberOf(n.ID())
	if len(member) > 0 && (!sl.markedAll || sl.confirmed < len(member)) {
		return
	}
	if len(member) == 0 && !sl.began {
		return
	}
	sl.fired = true
	m.cb.NeighborhoodDone(n, sl.id)
}

// Done reports whether the session's NeighborhoodDone fired at this node.
func (m *Module) Done(session int) bool {
	sl := m.find(session)
	return sl != nil && sl.fired
}

// Chain runs Theorem 3.2's staged gather: stage i learns that the
// (i+1)·d-neighborhood is done, by gathering "stage i-1 done" in the
// d-cover. Sessions used are base+0 … base+(L-1).
type Chain struct {
	Mod  *Module
	L    int // number of stages ℓ
	Base int // first session id
	// Final fires when the d·L-neighborhood is done with P.
	Final func(n *async.Node)

	marked bool
	stage  int
}

// Begin announces all chain sessions at this node (relays included).
func (ch *Chain) Begin(n *async.Node) {
	for i := 0; i < ch.L; i++ {
		ch.Mod.Begin(n, ch.Base+i)
	}
}

// MarkDone records local completion of P, starting stage 0.
func (ch *Chain) MarkDone(n *async.Node) {
	if ch.marked {
		return
	}
	ch.marked = true
	ch.Begin(n)
	ch.Mod.MarkDone(n, ch.Base)
}

// OnNeighborhoodDone must be called from the owner's Callbacks for sessions
// in [Base, Base+L); it advances the chain and fires Final at the end.
func (ch *Chain) OnNeighborhoodDone(n *async.Node, session int) {
	if session != ch.Base+ch.stage {
		panic(fmt.Sprintf("gather: chain got session %d at stage %d", session, ch.stage))
	}
	ch.stage++
	if ch.stage == ch.L {
		if ch.Final != nil {
			ch.Final(n)
		}
		return
	}
	ch.Mod.MarkDone(n, ch.Base+ch.stage)
}

// Owns reports whether the session belongs to this chain.
func (ch *Chain) Owns(session int) bool {
	return session >= ch.Base && session < ch.Base+ch.L
}
