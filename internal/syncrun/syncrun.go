// Package syncrun executes event-driven synchronous algorithms (§5.1,
// Appendix B of the paper) in lockstep rounds and measures their time
// complexity T(A) (rounds until every node has output) and message
// complexity M(A) (total messages).
//
// The event-driven interpretation is enforced structurally: a node's
// handler runs in round p only when the node received a message that round
// or sent one in round p-1 — it cannot wake up because "r rounds passed".
// Handlers do receive the current pulse number p; this is exactly the
// information the synchronizer of §5 reconstructs (it proves
// pulse(v,p) = p), so providing it changes nothing about synchronizability
// while making algorithms like BFS natural to write.
//
// The engine is dense and allocation-free at steady state: message bodies
// are wire.Body values (no interface boxing), each pulse's deliveries live
// in one flat pool threaded into per-receiver chains by epoch-stamped
// head/tail cursors (12 bytes of per-node state per buffer instead of a
// per-node slice), the activation set is a bitmap iterated in node-index
// order, and the CONGEST one-message-per-link-per-pulse guard is a flat
// pulse-stamp array indexed by the graph's dense LinkID. Because active
// nodes step in ascending index order and each sends at most once per
// neighbor, every receiver's chain is sorted by sender by construction.
//
// The Runner steps each pulse's activation set on the calling goroutine.
package syncrun

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// Incoming is one received message: the sender and the payload, both plain
// values — delivery never boxes. The recvd batch handed to Pulse is
// engine-owned scratch, valid only during the call (its backing array is
// reused for the next node's batch, and a Body segment is recycled when
// the receiving Pulse returns); copy entries out inside Pulse to retain
// them.
type Incoming struct {
	From graph.NodeID
	Body wire.Body
}

// API is the surface an event-driven synchronous algorithm sees. The
// lockstep Runner in this package implements it with *Node; the
// synchronizer of internal/core implements it again so the identical
// algorithm code runs asynchronously.
type API interface {
	// ID returns this node's identifier.
	ID() graph.NodeID
	// Neighbors returns adjacent nodes in ascending order.
	Neighbors() []graph.Neighbor
	// Degree returns the node degree.
	Degree() int
	// Send transmits body to a neighbor; it arrives next pulse. At most
	// one message per neighbor per pulse (CONGEST link capacity). Segment
	// ownership transfers to the engine at Send (see package wire).
	Send(to graph.NodeID, body wire.Body)
	// Arena returns the run's segment arena for variable-length payloads.
	Arena() *wire.Arena
	// Output records this node's final output. Primitive values (int,
	// int64, bool, graph.NodeID) are stored as typed wire.Body entries
	// without boxing; anything else falls back to a boxed escape slot.
	Output(v any)
	// OutputBody records this node's final output as a typed wire.Body
	// (non-zero Kind; outval decodes it at the Result boundary) — the
	// allocation-free path for struct results.
	OutputBody(b wire.Body)
	// HasOutput reports whether output was already produced.
	HasOutput() bool
}

// Handler is an event-driven synchronous node program. One Handler
// instance exists per node and owns that node's state. Handlers on
// different nodes must not share mutable state (shared read-only data is
// fine): the synchronizer runs each node's handler inside its own
// simulated node, and a sharded run places nodes in different processes.
type Handler interface {
	// Init runs at pulse 0. Initiator nodes send their first messages here.
	Init(n API)
	// Pulse runs at pulse p > 0 if this node received messages sent at
	// pulse p-1 (recvd, sorted by sender) or itself sent at pulse p-1.
	// It may send messages (which then carry pulse p). recvd is only
	// valid during the call (see Incoming).
	Pulse(n API, p int, recvd []Incoming)
}

// Node is the Runner's API implementation.
type Node struct {
	id  graph.NodeID
	run *Runner
}

var _ API = (*Node)(nil)

// ID returns the node id.
func (n *Node) ID() graph.NodeID { return n.id }

// Neighbors returns adjacent nodes in ascending order.
func (n *Node) Neighbors() []graph.Neighbor { return n.run.g.Neighbors(n.id) }

// Degree returns the node degree.
func (n *Node) Degree() int { return n.run.g.Degree(n.id) }

// Send transmits body to neighbor `to`; it arrives next pulse. At most one
// message per neighbor per pulse (CONGEST-style link capacity; the async
// ack discipline enforces the same limit, so algorithms written against
// this runner synchronize without surprises).
func (n *Node) Send(to graph.NodeID, body wire.Body) {
	r := n.run
	l := r.g.LinkBetween(n.id, to)
	if l < 0 {
		panic(fmt.Sprintf("syncrun: node %d sending to non-neighbor %d", n.id, to))
	}
	stamp := int32(r.pulse) + 1
	if r.sentAt[l] == stamp {
		panic(fmt.Sprintf("syncrun: node %d sent twice to %d in one pulse", n.id, to))
	}
	r.sentAt[l] = stamp
	r.record(n.id, to, body)
}

// Output records this node's final output.
func (n *Node) Output(v any) {
	if b, ok := outval.Encode(v); ok {
		n.OutputBody(b)
		return
	}
	r := n.run
	if r.outBodies != nil {
		r.outBodies[n.id] = wire.Body{}
	}
	if r.outAnys == nil {
		r.outAnys = make([]any, r.g.N())
	}
	r.outAnys[n.id] = v
	n.noteOutput()
}

// OutputBody records this node's final output as a typed wire.Body.
func (n *Node) OutputBody(b wire.Body) {
	if b.Kind == 0 {
		panic(fmt.Sprintf("syncrun: node %d output a Body with zero Kind", n.id))
	}
	r := n.run
	r.bodySlab()[n.id] = b
	if r.outAnys != nil {
		r.outAnys[n.id] = nil
	}
	n.noteOutput()
}

// noteOutput updates the first-output bookkeeping (the T clock).
func (n *Node) noteOutput() {
	r := n.run
	if !r.hasOut[n.id] {
		r.hasOut[n.id] = true
		if r.pulse > r.lastOut {
			r.lastOut = r.pulse
		}
	}
}

// HasOutput reports whether this node already produced output.
func (n *Node) HasOutput() bool { return n.run.hasOut[n.id] }

// Arena returns the run's segment arena. Sent segments are recycled after
// the receiving pulse's batch is delivered.
func (n *Node) Arena() *wire.Arena { return &n.run.arena }

// TraceEntry records one message for trace-equivalence checking against the
// synchronized asynchronous execution (Theorem 5.2).
type TraceEntry struct {
	Pulse    int
	From, To graph.NodeID
	Body     wire.Body
}

// Result summarizes a synchronous run.
type Result struct {
	// T is the paper's T(A): rounds until the last node outputs.
	T int
	// Rounds is the round at which the network went quiet.
	Rounds int
	// M is the paper's M(A): total messages sent.
	M uint64
	// Outputs maps node -> decoded output. With WithDenseOutputs it
	// carries only the rare non-encodable values; everything else is in
	// OutBodies.
	Outputs map[graph.NodeID]any
	// OutBodies/OutSet are the dense typed outputs, populated only with
	// WithDenseOutputs: OutSet[v] reports whether node v output,
	// OutBodies[v] is its outval-encoded value.
	OutBodies []wire.Body
	OutSet    []bool
	// Trace lists every message with its pulse (in deterministic order).
	Trace []TraceEntry
}

// pendMsg is one pending delivery in a pulse buffer's flat pool, threaded
// into its receiver's chain by pool index (-1 terminates).
type pendMsg struct {
	in   Incoming
	next int32
}

// pulseBuf is one side of the double-buffered pulse state. The pulse's
// deliveries sit in one flat pool (pend, appended in serial application
// order) threaded into per-receiver chains by head/tail cursors; ep stamps
// which cursors belong to the buffer's current fill epoch, so rearming the
// buffer is a counter bump plus a pool truncation instead of clearing n
// per-node slices. Chains materialize already sorted by sender: senders
// apply in ascending node order and each sends at most once per receiver.
type pulseBuf struct {
	pend   []pendMsg
	head   []int32
	tail   []int32
	ep     []uint32
	epoch  uint32
	bits   []uint64
	active int // number of set bits
}

func newPulseBuf(n int, epoch uint32) pulseBuf {
	return pulseBuf{
		head:  make([]int32, n),
		tail:  make([]int32, n),
		ep:    make([]uint32, n),
		epoch: epoch,
		bits:  make([]uint64, (n+63)/64),
	}
}

func (b *pulseBuf) activate(v graph.NodeID) {
	w, m := uint(v)>>6, uint64(1)<<(uint(v)&63)
	if b.bits[w]&m == 0 {
		b.bits[w] |= m
		b.active++
	}
}

// deliver appends one message to the pool and splices it onto the
// receiver's chain.
func (b *pulseBuf) deliver(to graph.NodeID, in Incoming) {
	idx := int32(len(b.pend))
	b.pend = append(b.pend, pendMsg{in: in, next: -1})
	if b.ep[to] == b.epoch {
		b.pend[b.tail[to]].next = idx
	} else {
		b.ep[to] = b.epoch
		b.head[to] = idx
	}
	b.tail[to] = idx
}

// batch materializes node to's chain into scratch (reused across calls;
// the returned slice aliases it). Nodes active only because they sent get
// an empty batch: their cursor epoch never reached this fill epoch.
func (b *pulseBuf) batch(to graph.NodeID, scratch []Incoming) []Incoming {
	scratch = scratch[:0]
	if b.ep[to] != b.epoch {
		return scratch
	}
	for i := b.head[to]; i >= 0; i = b.pend[i].next {
		scratch = append(scratch, b.pend[i].in)
	}
	return scratch
}

// refill rearms the buffer as the next pulse's fill target: the pool
// empties (capacity kept) and the epoch bump invalidates every node's
// cursors at once. pendMsg holds no pointers, so the retained capacity
// pins nothing for the GC.
func (b *pulseBuf) refill() {
	b.pend = b.pend[:0]
	if b.epoch == math.MaxUint32 {
		panic("syncrun: pulse epoch counter overflow")
	}
	b.epoch++
}

// Runner executes one synchronous algorithm on one graph.
type Runner struct {
	g        *graph.Graph
	handlers []Handler
	nodes    []Node

	pulse int
	cur   pulseBuf // being processed this pulse
	nxt   pulseBuf // being filled for next pulse

	// started marks that Init ran (or was skipped on a resumed run); done
	// marks quiescence; resumed marks state loaded from a snapshot, whose
	// continuation skips Init (see snap.go).
	started bool
	done    bool
	resumed bool

	// sentAt is the CONGEST guard: per directed link, the stamp
	// (pulse+1) of the last pulse a message was sent on it.
	sentAt []int32

	// Outputs: typed bodies (Kind != 0) with a boxed escape hatch for
	// values outval cannot encode (body zero, value in the any slab).
	// Both value slabs are lazy — nil until the first output of the
	// respective kind. Only the 1-byte hasOut column is eager.
	outBodies []wire.Body
	outAnys   []any
	hasOut    []bool
	denseOut  bool
	lastOut   int
	msgs      uint64
	trace     []TraceEntry
	maxRounds int
	keepTrace bool

	// scratch is the reusable batch-materialization buffer.
	scratch []Incoming

	// arena backs Body.Seg segments; delivered segments return to it after
	// the receiving pulse's batch is processed.
	arena wire.Arena
}

// New builds a Runner; mk creates each node's handler. The graph is
// finalized if it was not already (the dense link index requires it).
func New(g *graph.Graph, mk func(id graph.NodeID) Handler) *Runner {
	g.Finalize()
	r := &Runner{
		g:        g,
		handlers: make([]Handler, g.N()),
		nodes:    make([]Node, g.N()),
		// cur's epoch trails nxt's by one; each refill bumps past every
		// stamp the buffer has ever written, so stale cursors never match.
		cur:       newPulseBuf(g.N(), 0),
		nxt:       newPulseBuf(g.N(), 1),
		sentAt:    make([]int32, g.Links()),
		hasOut:    make([]bool, g.N()),
		maxRounds: 1 << 22,
	}
	for i := 0; i < g.N(); i++ {
		id := graph.NodeID(i)
		r.nodes[i] = Node{id: id, run: r}
		r.handlers[i] = mk(id)
	}
	return r
}

// KeepTrace enables message-trace recording (used by equivalence tests).
func (r *Runner) KeepTrace() *Runner { r.keepTrace = true; return r }

// WithDenseOutputs makes Run return outputs as the dense OutBodies/OutSet
// pair instead of materializing the Outputs map — O(1) allocations at the
// finish line instead of one interface box per node. Callers decode with
// outval.Decode; non-encodable legacy outputs still surface in the map.
func (r *Runner) WithDenseOutputs() *Runner { r.denseOut = true; return r }

// SetMaxRounds caps the number of rounds; exceeding it panics.
func (r *Runner) SetMaxRounds(limit int) { r.maxRounds = limit }

// Handler returns node v's handler for post-run inspection.
func (r *Runner) Handler(v graph.NodeID) Handler { return r.handlers[v] }

// bodySlab returns the typed-output slab, allocating it on first use.
func (r *Runner) bodySlab() []wire.Body {
	if r.outBodies == nil {
		r.outBodies = make([]wire.Body, r.g.N())
	}
	return r.outBodies
}

// Run executes to quiescence and returns measurements.
func (r *Runner) Run() Result {
	r.start()
	for r.stepPulse() {
	}
	return r.finish()
}

// start runs pulse 0 (Init) on the first call — unless the runner resumed
// from a snapshot, whose pulse 0 already happened in the interrupted run.
func (r *Runner) start() {
	if !r.started {
		r.started = true
		if !r.resumed {
			// Pulse 0: initiators act; their sends land in nxt.
			for i := range r.handlers {
				r.handlers[i].Init(&r.nodes[i])
			}
		}
	}
}

// stepPulse advances the clock and executes one pulse, reporting false
// once the network is quiet (the clock still advances past the final
// pulse, preserving Rounds = pulse-1).
func (r *Runner) stepPulse() bool {
	if r.done {
		return false
	}
	r.pulse++
	if r.pulse > r.maxRounds {
		panic(fmt.Sprintf("syncrun: exceeded %d rounds", r.maxRounds))
	}
	if r.nxt.active == 0 {
		r.done = true
		return false
	}
	r.cur, r.nxt = r.nxt, r.cur
	r.nxt.refill()
	r.stepActive()
	return true
}

// finish materializes the run's Result.
func (r *Runner) finish() Result {
	res := Result{
		T:      r.lastOut,
		Rounds: r.pulse - 1,
		M:      r.msgs,
		Trace:  r.trace,
	}
	outB, outA := r.outBodies, r.outAnys
	if r.denseOut {
		if outB == nil {
			outB = make([]wire.Body, r.g.N())
		}
		res.OutBodies = outB
		res.OutSet = r.hasOut
		for i, has := range r.hasOut {
			if has && outB[i].Kind == 0 {
				if res.Outputs == nil {
					res.Outputs = make(map[graph.NodeID]any)
				}
				var v any
				if outA != nil {
					v = outA[i]
				}
				res.Outputs[graph.NodeID(i)] = v
			}
		}
		return res
	}
	outputs := make(map[graph.NodeID]any)
	for i, has := range r.hasOut {
		if has {
			var b wire.Body
			if outB != nil {
				b = outB[i]
			}
			var v any
			if outA != nil {
				v = outA[i]
			}
			outputs[graph.NodeID(i)] = outval.DecodeSlot(b, v)
		}
	}
	res.Outputs = outputs
	return res
}

// stepActive runs one pulse, iterating active nodes in index order
// straight off the bitmap.
func (r *Runner) stepActive() {
	for w, word := range r.cur.bits {
		if word == 0 {
			continue
		}
		r.cur.bits[w] = 0
		base := w << 6
		for word != 0 {
			v := graph.NodeID(base + bits.TrailingZeros64(word))
			word &= word - 1
			r.stepNode(v)
		}
	}
	r.cur.active = 0
}

// stepNode materializes node v's batch into the scratch buffer, delivers
// it, and recycles the batch's segments.
func (r *Runner) stepNode(v graph.NodeID) {
	batch := r.cur.batch(v, r.scratch)
	r.scratch = batch
	r.handlers[v].Pulse(&r.nodes[v], r.pulse, batch)
	for i := range batch {
		r.arena.Release(batch[i].Body.Seg) // the batch was the segment's last use
	}
}

// record applies one send: deliver into the next pulse's chain pool and
// activate both endpoints.
func (r *Runner) record(from, to graph.NodeID, body wire.Body) {
	r.msgs++
	r.nxt.deliver(to, Incoming{From: from, Body: body})
	r.nxt.activate(to)
	r.nxt.activate(from)
	if r.keepTrace {
		// A seg-carrying trace Body keeps only the handle; its storage is
		// recycled after delivery, so traces of seg traffic are compared
		// by handle, not resolved afterwards.
		r.trace = append(r.trace, TraceEntry{Pulse: r.pulse, From: from, To: to, Body: body})
	}
}
