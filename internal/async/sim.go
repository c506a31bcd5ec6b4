package async

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// Sim is a deterministic discrete-event simulation of one asynchronous
// execution: a graph, one Handler per node, and a delay adversary.
//
// All per-link state is dense: the graph's CSR link index (graph.LinkID)
// addresses a flat []outbox and []uint64 transmission-sequence array, both
// pre-sized at New, and message bodies are wire.Body values end to end —
// the send/dispatch/deliver hot path performs no map operations, no
// interface boxing, and no steady-state allocations. Per-protocol message
// counts live in a flat slice indexed by Proto (the map form exists only
// at the Result/Stats boundary), and node outputs are stored as typed
// wire.Body values (outval encoding) rather than boxed interfaces.
// Variable-length segments come from a per-run arena and are recycled when
// each message's lifecycle ends (after the sender's Ack callback).
//
// Run pops one event at a time on the calling goroutine. The one parallel
// path is the multi-process shard protocol (shard.go): because every
// adversary declares a positive delay lower bound (Adversary.MinDelay),
// all events inside one MinDelay-wide window are pairwise independent
// across nodes, so shards execute a window each and merge the staged
// schedule calls in exactly the order this serial loop issues them.
// Handlers on different nodes must therefore not share mutable state
// (read-only shared data is fine): a sharded run places them in different
// processes.
type Sim struct {
	g         *graph.Graph
	adv       Adversary
	lookahead float64 // adv.MinDelay(), validated at New/Reset
	// faults is the schedule unwrapped from a Faulty adversary at New/Reset
	// (nil when absent). It is consulted once per transmission attempt at
	// dispatch — the same point in the event order serially and sharded,
	// so fault decisions are byte-identical across the two.
	faults   *FaultSchedule
	handlers []Handler
	nodes    []Node
	// mk is the handler constructor of the current run, retained so
	// Restore can rebuild the handlers before loading their state.
	mk func(id graph.NodeID) Handler

	// nodeBase mirrors g.NodeBase(): per-node arrays (handlers, nodes,
	// hasOut, output slabs) are NLocal-sized and indexed by id - nodeBase.
	// Whole graphs have base 0, so the subtraction is free noise there.
	nodeBase graph.NodeID

	// Shard-staged mode (see shard.go): schedule calls are appended to
	// shardLog, keyed by the triggering event's (now, curSeq), instead of
	// entering the local queue, because event seqs are granted by the
	// cross-process coordinator's merge.
	shardMode bool
	shardLog  []stagedEv

	events  eventQueue
	eventSq uint64
	now     float64
	// curSeq is the seq of the event being processed (ShardInit sets it
	// to the initializing node's global id): the key of shard-staged
	// schedule calls and of undeliverable trace entries.
	curSeq uint64

	// Per-directed-link hot state, indexed by graph.LinkID and split by
	// temperature: busy is the 1-byte in-flight flag every send and ack
	// touches; txSeq is the 4-byte transmission sequence the adversary is
	// consulted with (overflow-checked); boxes holds the lazily allocated
	// contention queues — a slot stays nil until a send finds its link
	// busy, so uncontended links cost 13 bytes, not an outbox struct.
	busy  []bool
	txSeq []uint32
	boxes []*outbox

	// Outputs: typed bodies (Kind != 0) with a boxed escape hatch for
	// values outval cannot encode (zero body slot, value in the any slot).
	// Both value slabs are lazy — nil until the first output of the
	// respective kind. Only the 1-byte hasOut column is eager.
	outBodies      []wire.Body
	outAnys        []any
	hasOut         []bool
	outCount       int
	lastOutputTime float64
	denseOut       bool

	msgs     uint64
	acks     uint64
	perProto []uint64 // dense, indexed by Proto

	// Fault-plane accounting: transmissions lost to the schedule, retries
	// scheduled, and messages abandoned with their budget exhausted.
	dropped uint64
	retrans uint64
	undeliv uint64

	keepTrace bool
	trace     []TraceEntry

	maxEvents uint64
	steps     uint64
	running   bool

	// resumed marks an engine whose state was loaded from a snapshot
	// (Restore/ShardRestoreFrame): the next run continues the interrupted
	// one, so handlers are not re-initialized and pending events already
	// populate the queue.
	resumed bool

	// arena backs Body.Seg segments; sent segments return to it after the
	// ack completes the message's lifecycle.
	arena wire.Arena
}

// SpecStats is a retained shim: the speculative executor it accounted for
// was removed because it lost to the serial loop on every measured workload.
// The type and Sim.SpecStats survive only for perfbench, which still
// reports the counters; they are always zero.
type SpecStats struct {
	Rounds    uint64
	Executed  uint64
	Committed uint64
	Replayed  uint64
}

// TraceKind distinguishes delivery-trace entry types. The zero value is a
// normal delivery, so fault-free traces are unchanged by the field.
type TraceKind uint8

const (
	// TraceDeliver is a delivered message (the zero value).
	TraceDeliver TraceKind = iota
	// TraceUndeliverable records a message abandoned after its retransmit
	// budget was exhausted by the fault schedule — typed evidence instead
	// of a hang. Its (T, Seq) key is the event that issued the final failed
	// attempt.
	TraceUndeliverable
)

// TraceEntry records one delivered message (KeepTrace). Entries appear in
// delivery order — the engine's (t, seq) event order. Note that for
// segment-carrying bodies the Seg handle value, not its contents, is
// recorded (no shipped protocol carries segments in traced runs).
type TraceEntry struct {
	T        float64
	Seq      uint64
	From, To graph.NodeID
	Msg      Msg
	Kind     TraceKind
}

// Result summarizes one asynchronous run. Every field is safe to retain
// after Sim.Reset reuses the engine.
type Result struct {
	// Time is the normalized time (τ = 1) at which the last node produced
	// its output — the paper's time complexity measure (Appendix B).
	Time float64
	// QuiesceTime is when the last event of any kind fired (auxiliary
	// cleanup may continue after outputs, §1.3.1).
	QuiesceTime float64
	// Msgs counts algorithm messages (excludes link-level acks).
	Msgs uint64
	// Acks counts link-level acknowledgments (the model's 2x factor).
	Acks uint64
	// Dropped counts transmission attempts lost to the fault schedule
	// (wire drops, crashed receivers, down links). Zero without faults.
	Dropped uint64
	// Retrans counts retransmission attempts the delivery layer scheduled
	// for lost transmissions (each consumes budget and a fresh adversary
	// delay).
	Retrans uint64
	// Undeliverable counts messages abandoned with their retransmit budget
	// exhausted; each also appears as a TraceUndeliverable entry in traced
	// runs.
	Undeliverable uint64
	// PerProto breaks Msgs down by protocol tag (materialized from the
	// engine's dense counters at this boundary).
	PerProto map[Proto]uint64
	// Outputs maps node -> decoded output for nodes that called Output.
	// With DenseOutputs it carries only the rare non-encodable values;
	// everything else is in OutBodies.
	Outputs map[graph.NodeID]any
	// OutBodies/OutSet are the dense typed outputs, populated only with
	// DenseOutputs: OutSet[v] reports whether node v output, OutBodies[v]
	// is its outval-encoded value. Finishing a run in this mode allocates
	// two slices, not one interface box per node.
	OutBodies []wire.Body
	OutSet    []bool
	// Trace lists every delivered message (only with KeepTrace).
	Trace []TraceEntry
}

// New builds a simulation. mk is called once per node, in ascending node
// order, to create that node's Handler. The graph is finalized if it was
// not already (the dense link index requires it).
func New(g *graph.Graph, adv Adversary, mk func(id graph.NodeID) Handler) *Sim {
	g.Finalize()
	s := &Sim{
		g:         g,
		adv:       adv,
		lookahead: checkedLookahead(adv),
		faults:    faultsOf(adv),
		nodeBase:  g.NodeBase(),
		handlers:  make([]Handler, g.NLocal()),
		nodes:     make([]Node, g.NLocal()),
		busy:      make([]bool, g.Links()),
		txSeq:     make([]uint32, g.Links()),
		boxes:     make([]*outbox, g.Links()),
		hasOut:    make([]bool, g.NLocal()),
		maxEvents: 1 << 34,
		mk:        mk,
	}
	for i := 0; i < g.NLocal(); i++ {
		id := s.nodeBase + graph.NodeID(i)
		s.nodes[i] = Node{id: id, sim: s}
		s.handlers[i] = mk(id)
	}
	return s
}

// li maps a global node id to its slot in the per-node arrays (identity
// on whole graphs).
func (s *Sim) li(id graph.NodeID) graph.NodeID { return id - s.nodeBase }

// checkedLookahead validates the adversary's declared delay lower bound.
func checkedLookahead(adv Adversary) float64 {
	la := adv.MinDelay()
	if la <= 0 || la > 1 {
		panic(fmt.Sprintf("async: adversary %q declares MinDelay %g outside (0,1]", adv.Name(), la))
	}
	return la
}

// SpecStats always returns the zero value (see the SpecStats type).
func (s *Sim) SpecStats() SpecStats { return SpecStats{} }

// KeepTrace enables message-trace recording (determinism tests compare
// traces across runs).
func (s *Sim) KeepTrace() *Sim { s.keepTrace = true; return s }

// DenseOutputs makes Run return outputs as the dense OutBodies/OutSet pair
// instead of materializing the Outputs map — O(1) allocations at the
// finish line instead of one interface box per node. Callers decode with
// outval.Decode; non-encodable legacy outputs still surface in the map.
func (s *Sim) DenseOutputs() *Sim { s.denseOut = true; return s }

// SetMaxEvents caps the number of processed events; exceeding it panics
// (runaway protocols are bugs, not conditions to limp through).
func (s *Sim) SetMaxEvents(limit uint64) { s.maxEvents = limit }

// Handler returns node v's handler (tests use this to inspect final state).
func (s *Sim) Handler(v graph.NodeID) Handler { return s.handlers[s.li(v)] }

// Graph returns the simulated topology.
func (s *Sim) Graph() *graph.Graph { return s.g }

// Stats snapshots the costs accrued so far: the current simulation time
// and the message/ack counters, with the per-protocol breakdown
// materialized as a map. The snapshot is exact at any point, including
// from inside a handler. core.SynchronizeUnknownBound bills doubling
// attempts that abort before Run returns (Theorem 5.4's Σ 2^t
// accounting) from this snapshot.
func (s *Sim) Stats() (now float64, msgs, acks uint64, perProto map[Proto]uint64) {
	return s.now, s.msgs, s.acks, s.perProtoMap()
}

// FaultStats snapshots the fault-plane counters, exact at any point like
// Stats.
func (s *Sim) FaultStats() (dropped, retrans, undeliverable uint64) {
	return s.dropped, s.retrans, s.undeliv
}

func (s *Sim) perProtoMap() map[Proto]uint64 {
	pp := make(map[Proto]uint64)
	for p, n := range s.perProto {
		if n != 0 {
			pp[Proto(p)] = n
		}
	}
	return pp
}

// bodySlab returns the typed-output slab, allocating it on first use.
func (s *Sim) bodySlab() []wire.Body {
	if s.outBodies == nil {
		s.outBodies = make([]wire.Body, s.g.NLocal())
	}
	return s.outBodies
}

// Reset rearms the engine for another run on the same graph: counters,
// queues, outboxes, outputs, and the segment arena all return to their
// initial state while keeping every backing array they grew — the wheel
// slots, per-link outbox capacity, and arena chunks are reused, so a
// harness sweeping many trials on one topology allocates the engine once.
// mk rebuilds the per-node handlers; adv may differ from the previous run.
func (s *Sim) Reset(adv Adversary, mk func(id graph.NodeID) Handler) {
	s.adv = adv
	s.lookahead = checkedLookahead(adv)
	s.faults = faultsOf(adv)
	s.running = false
	s.resumed = false
	s.events.reset()
	s.eventSq = 0
	s.now = 0
	s.curSeq = 0
	s.steps = 0
	for i, ob := range s.boxes {
		s.busy[i] = false
		if ob != nil {
			ob.reset()
		}
	}
	for i := range s.txSeq {
		s.txSeq[i] = 0
	}
	// The lazily built output slabs stay allocated (pooled growth); only
	// their contents clear.
	for i := range s.hasOut {
		s.hasOut[i] = false
	}
	for i := range s.outBodies {
		s.outBodies[i] = wire.Body{}
	}
	for i := range s.outAnys {
		s.outAnys[i] = nil
	}
	s.outCount = 0
	s.lastOutputTime = 0
	s.msgs, s.acks = 0, 0
	s.dropped, s.retrans, s.undeliv = 0, 0, 0
	for i := range s.perProto {
		s.perProto[i] = 0
	}
	s.trace = s.trace[:0]
	s.mk = mk
	s.arena.Reset()
	s.shardMode = false
	s.shardLog = s.shardLog[:0]
	for i := range s.handlers {
		s.handlers[i] = mk(s.nodeBase + graph.NodeID(i))
	}
}

// Run executes the simulation to quiescence and returns the result.
func (s *Sim) Run() Result {
	if s.running {
		panic("async: Run called twice (use Reset to rearm)")
	}
	if s.g.Sub() {
		panic("async: Run on a Subrange view; shard engines are driven by the internal/shard protocol")
	}
	s.running = true
	if !s.resumed {
		for i := range s.handlers {
			s.handlers[i].Init(&s.nodes[i])
		}
	}
	var ev event
	for !s.events.empty() {
		s.events.pop(&ev)
		s.step(&ev)
	}
	return s.result()
}

// step advances the clock to ev and executes it: the one event step that
// Run, RunSteps and ShardRunWindow share.
func (s *Sim) step(ev *event) {
	if ev.t < s.now {
		panic(fmt.Sprintf("async: time went backwards: %g < %g", ev.t, s.now))
	}
	s.now = ev.t
	s.steps++
	if s.steps > s.maxEvents {
		panic(fmt.Sprintf("async: exceeded %d events at t=%g (livelock?)", s.maxEvents, s.now))
	}
	s.processEvent(ev)
}

// result materializes the run's Result at the engine boundary.
func (s *Sim) result() Result {
	res := Result{
		Time:          s.lastOutputTime,
		QuiesceTime:   s.now,
		Msgs:          s.msgs,
		Acks:          s.acks,
		Dropped:       s.dropped,
		Retrans:       s.retrans,
		Undeliverable: s.undeliv,
		PerProto:      s.perProtoMap(),
	}
	if s.keepTrace {
		res.Trace = append([]TraceEntry(nil), s.trace...)
	}
	outB, outA := s.outBodies, s.outAnys
	bodyAt := func(i int) wire.Body {
		if outB == nil {
			return wire.Body{}
		}
		return outB[i]
	}
	anyAt := func(i int) any {
		if outA == nil {
			return nil
		}
		return outA[i]
	}
	if s.denseOut {
		if outB != nil {
			res.OutBodies = append([]wire.Body(nil), outB...)
		} else {
			res.OutBodies = make([]wire.Body, s.g.N())
		}
		res.OutSet = append([]bool(nil), s.hasOut...)
		for i, has := range s.hasOut {
			if has && bodyAt(i).Kind == 0 {
				if res.Outputs == nil {
					res.Outputs = make(map[graph.NodeID]any)
				}
				res.Outputs[graph.NodeID(i)] = anyAt(i)
			}
		}
		return res
	}
	outputs := make(map[graph.NodeID]any, s.outCount)
	for i, has := range s.hasOut {
		if has {
			outputs[s.nodeBase+graph.NodeID(i)] = outval.DecodeSlot(bodyAt(i), anyAt(i))
		}
	}
	res.Outputs = outputs
	return res
}

// DecodedOutputs materializes the user-facing output map of a DenseOutputs
// Result (for the default mode it is already in Outputs). Hot loops that
// discard intermediate outputs skip this; boundaries that keep the final
// iteration's outputs call it once.
func (r *Result) DecodedOutputs() map[graph.NodeID]any {
	if r.OutSet == nil {
		return r.Outputs
	}
	outputs := make(map[graph.NodeID]any)
	for i, has := range r.OutSet {
		if has {
			outputs[graph.NodeID(i)] = outval.DecodeSlot(r.OutBodies[i], r.Outputs[graph.NodeID(i)])
		}
	}
	return outputs
}

// stagedEv is one deferred schedule call, keyed by the event that issued it.
type stagedEv struct {
	ev      event
	trigT   float64
	trigSeq uint64
}

// processEvent executes one event at the current time s.now.
func (s *Sim) processEvent(ev *event) {
	s.curSeq = ev.seq
	switch ev.kind {
	case evDeliver:
		if s.keepTrace {
			s.trace = append(s.trace, TraceEntry{T: ev.t, Seq: ev.seq, From: ev.src, To: ev.dst, Msg: ev.msg})
		}
		dst := s.li(ev.dst)
		s.handlers[dst].Recv(&s.nodes[dst], ev.src, ev.msg)
		// Ack travels back; its arrival frees the link.
		s.acks++
		// The return path. A negative link marks a remote-injected delivery
		// (shard mode): the forward link lives on the sender's shard, so the
		// injector encoded the local back link as its complement instead of
		// relying on ReverseLink (which is -1 across a shard boundary).
		back := ev.link
		if back >= 0 {
			back = s.g.ReverseLink(back)
		} else {
			back = ^back
		}
		d := s.adv.Delay(ev.dst, ev.src, uint64(s.txSeq[back]), ev.msg.Proto)
		s.bumpTx(back)
		s.checkDelay(d)
		s.schedule(&event{t: s.now + d, kind: evAckArrive, link: ev.link, src: ev.src, dst: ev.dst, msg: ev.msg})
	case evAckArrive:
		// ev.src is the original sender whose link is now free.
		s.busy[ev.link] = false
		s.dispatch(ev.src, ev.dst, ev.link)
		src := s.li(ev.src)
		s.handlers[src].Ack(&s.nodes[src], ev.dst, ev.msg)
		// The ack ends the message's lifecycle; recycle any segment
		// (receivers copy data out if they keep it). No-op without one.
		s.arena.Release(ev.msg.Body.Seg)
	case evRetrans:
		// A backoff timer fired: retry the lost transmission. The link has
		// stayed in flight since the original send, so the attempt re-enters
		// at transmit, not send — no handler runs for this event.
		s.transmit(ev.src, ev.dst, ev.link, &ev.msg, ev.attempt)
	}
}

func (s *Sim) send(from, to graph.NodeID, m Msg) {
	l := s.g.LinkBetween(from, to)
	if l < 0 {
		panic(fmt.Sprintf("async: node %d sending to non-neighbor %d", from, to))
	}
	s.msgs++
	s.perProto = bumpProtoBy(s.perProto, m.Proto, 1)
	if !s.busy[l] {
		// Uncontended fast path: an idle link's queue is necessarily empty
		// (a queued message implies an in-flight one), so push+pop of this
		// single message collapses to direct injection — no outbox is ever
		// allocated for a link that never queues behind an in-flight send.
		s.inject(from, to, l, &m)
		return
	}
	ob := s.boxes[l]
	if ob == nil {
		ob = &outbox{}
		s.boxes[l] = ob
	}
	ob.push(m)
}

// inject marks the link in flight and performs the first transmission
// attempt.
func (s *Sim) inject(from, to graph.NodeID, l graph.LinkID, m *Msg) {
	s.busy[l] = true
	s.transmit(from, to, l, m, 0)
}

// transmit performs transmission attempt `attempt` on an in-flight link:
// consult the adversary for the hop delay as always, then ask the fault
// schedule — once, with the attempt's transmission sequence and computed
// arrival time — whether this attempt is lost. A lost attempt schedules a
// deterministic-backoff retransmission while budget remains; an exhausted
// budget surfaces as Undeliverable. Each retransmission consumes a fresh
// transmission sequence, so the adversary and the drop hash both see it as
// a new transmission. With no fault schedule this is exactly the old
// single-attempt dispatch.
func (s *Sim) transmit(from, to graph.NodeID, l graph.LinkID, m *Msg, attempt uint8) {
	txs := uint64(s.txSeq[l])
	d := s.adv.Delay(from, to, txs, m.Proto)
	s.bumpTx(l)
	s.checkDelay(d)
	td := s.now + d
	if s.faults == nil || !s.faults.Lost(from, to, txs, td) {
		s.schedule(&event{t: td, kind: evDeliver, link: l, src: from, dst: to, msg: *m})
		return
	}
	s.dropped++
	if int(attempt) >= s.faults.Budget {
		s.undeliverable(from, to, l, *m)
		return
	}
	s.retrans++
	b := s.faults.backoff(attempt, s.lookahead)
	s.schedule(&event{t: s.now + b, kind: evRetrans, link: l, src: from, dst: to, msg: *m, attempt: attempt + 1})
}

// undeliverable abandons a message whose retransmit budget is exhausted:
// record the typed trace entry under the triggering event's (t, seq) key,
// release the payload segment (the lifecycle that would have ended at the
// ack ends here), free the link, and dispatch its next queued message. The
// engine always quiesces — protocol-level stalls under faults are surfaced
// by watchdogs (core.StallReport), never as hangs.
func (s *Sim) undeliverable(from, to graph.NodeID, l graph.LinkID, m Msg) {
	s.undeliv++
	if s.keepTrace {
		s.trace = append(s.trace, TraceEntry{T: s.now, Seq: s.curSeq, From: from, To: to, Msg: m, Kind: TraceUndeliverable})
	}
	s.arena.Release(m.Body.Seg)
	s.busy[l] = false
	s.dispatch(from, to, l)
}

// bumpTx advances a link's transmission sequence, failing loudly before
// the 32-bit counter could wrap (4 billion messages on ONE link exceeds
// any configured event cap).
func (s *Sim) bumpTx(l graph.LinkID) {
	s.txSeq[l]++
	if s.txSeq[l] == math.MaxUint32 {
		panic(fmt.Sprintf("async: transmission sequence overflow on link %d", l))
	}
}

// dispatch injects the next queued message of the (from,to) link, if any.
// Links that never contended have no outbox and return immediately.
func (s *Sim) dispatch(from, to graph.NodeID, l graph.LinkID) {
	ob := s.boxes[l]
	if ob == nil {
		return
	}
	m, ok := ob.pop()
	if !ok {
		return
	}
	s.inject(from, to, l, &m)
}

// checkDelay enforces both the model's (0,1] delay contract and the
// adversary's own MinDelay declaration — the shard window protocol's
// safety rests on the latter, so violating it fails loudly in every run.
func (s *Sim) checkDelay(d float64) {
	if d <= 0 || d > 1 {
		panic(fmt.Sprintf("async: adversary %q returned delay %g outside (0,1]", s.adv.Name(), d))
	}
	if d < s.lookahead {
		panic(fmt.Sprintf("async: adversary %q returned delay %g below its declared MinDelay %g",
			s.adv.Name(), d, s.lookahead))
	}
}

// schedule issues one event: straight into the queue with the next seq,
// or — in shard mode, where event seqs are assigned by the coordinator's
// cross-shard merge — parked in shardLog keyed by its triggering event.
func (s *Sim) schedule(ev *event) {
	if s.shardMode {
		s.shardLog = append(s.shardLog, stagedEv{ev: *ev, trigT: s.now, trigSeq: s.curSeq})
		return
	}
	ev.seq = s.eventSq
	s.eventSq++
	s.events.push(ev)
}

// ownerOf is the node whose handler the event invokes: deliveries run the
// receiver, ack-returns run the original sender. A sharded run executes
// each event on its owner's shard.
func ownerOf(ev *event) graph.NodeID {
	if ev.kind == evDeliver {
		return ev.dst
	}
	return ev.src
}

// noteFirstOutput updates the time-to-output clock for a node's first
// Output call.
func (s *Sim) noteFirstOutput() {
	s.outCount++
	if s.now > s.lastOutputTime {
		s.lastOutputTime = s.now
	}
}

func (s *Sim) setOutputBody(id graph.NodeID, b wire.Body) {
	if b.Kind == 0 {
		panic(fmt.Sprintf("async: node %d output a Body with zero Kind", id))
	}
	i := s.li(id)
	if !s.hasOut[i] {
		s.hasOut[i] = true
		s.noteFirstOutput()
	}
	s.bodySlab()[i] = b
	if s.outAnys != nil {
		s.outAnys[i] = nil
	}
}

func (s *Sim) setOutput(id graph.NodeID, v any) {
	if b, ok := outval.Encode(v); ok {
		s.setOutputBody(id, b)
		return
	}
	i := s.li(id)
	if !s.hasOut[i] {
		s.hasOut[i] = true
		s.noteFirstOutput()
	}
	if s.outBodies != nil {
		s.outBodies[i] = wire.Body{}
	}
	if s.outAnys == nil {
		s.outAnys = make([]any, s.g.NLocal())
	}
	s.outAnys[i] = v
}

// bumpProtoBy adds n to the dense per-proto counter, growing the slice to
// cover p on first sight (growth happens a handful of times per run; the
// steady state indexes and adds, no hashing).
func bumpProtoBy(pp []uint64, p Proto, n uint64) []uint64 {
	if p < 0 {
		panic(fmt.Sprintf("async: negative proto %d", p))
	}
	if int(p) >= len(pp) {
		pp = append(pp, make([]uint64, int(p)+1-len(pp))...)
	}
	pp[p] += n
	return pp
}

const (
	evDeliver uint8 = iota + 1
	evAckArrive
	// evRetrans is a fault-plane backoff timer: retry the lost message on
	// its still-in-flight link. Owned by the sender (like evAckArrive), so
	// it is always shard-local and never crosses a coordinator wire.
	evRetrans
)

// event is one scheduled occurrence. Field order packs the 32-bit ids, the
// 1-byte kind, and the 1-byte retransmission attempt into one word, keeping
// the struct at 96 bytes. The calendar queue's slab holds these by value;
// its wheel orders 24-byte keys into the slab.
type event struct {
	t       float64
	seq     uint64
	link    graph.LinkID // the forward link src→dst
	src     graph.NodeID // sender of the original message
	dst     graph.NodeID // receiver of the original message
	kind    uint8
	attempt uint8 // evRetrans: attempt number of the retry it triggers
	msg     Msg
}
