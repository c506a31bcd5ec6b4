package async

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/execpolicy"
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// ExecutionMode selects how Sim.Run consumes the event queue. Results are
// byte-identical across modes; the choice is purely about wall-clock
// performance.
type ExecutionMode int

const (
	// ModeAuto picks ModeMulti when the graph is large enough to amortize
	// per-window coordination, more than one CPU is available, and the
	// adversary's lookahead makes safe windows worth a barrier; otherwise
	// ModeSingle. The decision lives in execpolicy.AsyncAuto, shared with
	// the lockstep runner's heuristic.
	ModeAuto ExecutionMode = iota
	// ModeSingle pops one event at a time on the calling goroutine.
	ModeSingle
	// ModeMulti executes bounded-lag time windows on a worker pool: per
	// window, each worker drains its own node shard's event wheel, staging
	// effects that merge deterministically at the window barrier.
	ModeMulti
)

func (m ExecutionMode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeSingle:
		return "single"
	case ModeMulti:
		return "multi"
	}
	return fmt.Sprintf("ExecutionMode(%d)", int(m))
}

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
// Run supports a bounded-lag parallel mode (ModeMulti): because every
// adversary declares a positive delay lower bound (Adversary.MinDelay),
// all events inside one MinDelay-wide window are pairwise independent
// across nodes — any event they cause lands at or beyond the window's end.
// Events are owned by the node whose handler they invoke (deliveries by
// the receiver, ack-returns by the sender), the calendar queue is sharded
// by owner across the workers, and each worker executes its shard's window
// slice in (t, seq) order against worker-private staging buffers. At the
// window barrier the staged schedules merge in exactly the order the
// serial engine would have issued them, so event sequence numbers — and
// therefore every tie-break, every Result field, and the message trace —
// are byte-identical to ModeSingle. Handlers on different nodes must not
// share mutable state (read-only shared data is fine), the same contract
// the lockstep runner's Multi mode imposes.
type Sim struct {
	g         *graph.Graph
	adv       Adversary
	lookahead float64 // adv.MinDelay(), validated at New/Reset
	// faults is the schedule unwrapped from a Faulty adversary at New/Reset
	// (nil when absent). It is consulted once per transmission attempt at
	// dispatch — the same point in the event order in every execution mode,
	// so fault decisions are byte-identical across Single/Multi/shard.
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

	// Shard-staged mode (see shard.go): direct-context schedule calls are
	// appended to shardLog — keyed by the triggering event like ModeMulti
	// staging — instead of entering the local queue, because event seqs
	// are granted by the cross-process coordinator's merge.
	shardMode bool
	shardLog  []stagedEv

	mode        ExecutionMode
	workers     int
	minParallel int

	events  eventQueue   // ModeSingle event store
	shards  []eventQueue // ModeMulti per-worker event stores, by owner node
	sharded bool
	eventSq uint64
	now     float64

	// Per-directed-link hot state, indexed by graph.LinkID and split by
	// temperature: busy is the 1-byte in-flight flag every send and ack
	// touches; txSeq is the 4-byte transmission sequence the adversary is
	// consulted with (overflow-checked); boxes holds the lazily allocated
	// contention queues — a slot stays nil until a send finds its link
	// busy, so uncontended links cost 13 bytes, not an outbox struct.
	// Box slots are only written by the link's owning worker, so lazy
	// allocation is race-free in the parallel modes.
	busy  []bool
	txSeq []uint32
	boxes []*outbox

	// Outputs: typed bodies (Kind != 0) with a boxed escape hatch for
	// values outval cannot encode (zero body slot, value in the any slot).
	// Both value slabs are lazy — allocated once, on the first output of
	// the respective kind, published via atomic pointer so concurrent
	// owner-sharded workers agree on the slab before writing their own
	// (disjoint) slots. Only the 1-byte hasOut column is eager.
	outBodyP       atomic.Pointer[[]wire.Body]
	outAnyP        atomic.Pointer[[]any]
	outMu          sync.Mutex
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

	// inWindow is true while a parallel window is in flight — between
	// fan-out and barrier merge, the engine's counters are a committed
	// prefix and Stats refuses to serve them as a snapshot.
	inWindow bool

	// direct is the apply-immediately execution context (ModeSingle and
	// the Init phase); wctx are the ModeMulti worker contexts.
	direct       execCtx
	wctx         []execCtx
	workerPanics []any
	mergeCur     []int

	// arena backs Body.Seg segments; sent segments return to it after the
	// ack completes the message's lifecycle.
	arena wire.Arena
}

// SpecStats is a retained shim: the speculative executor it accounted for
// was removed because it lost to ModeSingle on every measured workload.
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
// delivery order — the engine's (t, seq) event order — and are identical
// across execution modes. Note that for segment-carrying bodies the Seg
// handle value, not its contents, is recorded; concurrent arena allocation
// in ModeMulti may assign different handles than ModeSingle (no shipped
// protocol carries segments in traced runs).
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
		g:           g,
		adv:         adv,
		lookahead:   checkedLookahead(adv),
		faults:      faultsOf(adv),
		nodeBase:    g.NodeBase(),
		handlers:    make([]Handler, g.NLocal()),
		nodes:       make([]Node, g.NLocal()),
		busy:        make([]bool, g.Links()),
		txSeq:       make([]uint32, g.Links()),
		boxes:       make([]*outbox, g.Links()),
		hasOut:      make([]bool, g.NLocal()),
		maxEvents:   1 << 34,
		workers:     execpolicy.DefaultWorkers(),
		minParallel: defaultMinParallel,
		mk:          mk,
	}
	s.direct = execCtx{s: s, direct: true}
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

// defaultMinParallel is the smallest queue population for which a ModeMulti
// window fans out to goroutines; smaller windows run their shards inline
// (through the same staging, so results are identical either way).
const defaultMinParallel = 128

// WithMode selects the execution mode (default ModeAuto).
func (s *Sim) WithMode(m ExecutionMode) *Sim { s.mode = m; return s }

// WithWorkers caps the parallel worker pool (default GOMAXPROCS, capped by
// execpolicy.MaxWorkers). ModeAuto additionally clamps the pool to
// GOMAXPROCS; a forced parallel mode keeps an oversubscribed count (tests
// force 4 workers on 1 CPU to exercise the concurrent paths).
func (s *Sim) WithWorkers(k int) *Sim {
	execpolicy.ValidateWorkers("async", k)
	s.workers = k
	return s
}

// SpecStats always returns the zero value (see the SpecStats type).
func (s *Sim) SpecStats() SpecStats { return SpecStats{} }

// WithMinParallel sets the smallest queue population for which a ModeMulti
// window fans out to goroutines (default 128); tests lower it to force the
// concurrent path on small graphs — results are byte-identical regardless.
func (s *Sim) WithMinParallel(k int) *Sim {
	if k < 1 {
		panic(fmt.Sprintf("async: parallel threshold %d < 1", k))
	}
	s.minParallel = k
	return s
}

// KeepTrace enables message-trace recording (determinism tests compare
// traces across execution modes).
func (s *Sim) KeepTrace() *Sim { s.keepTrace = true; return s }

// DenseOutputs makes Run return outputs as the dense OutBodies/OutSet pair
// instead of materializing the Outputs map — O(1) allocations at the
// finish line instead of one interface box per node. Callers decode with
// outval.Decode; non-encodable legacy outputs still surface in the map.
func (s *Sim) DenseOutputs() *Sim { s.denseOut = true; return s }

// SetMaxEvents caps the number of processed events; exceeding it panics
// (runaway protocols are bugs, not conditions to limp through). In
// ModeMulti the cap is checked at window barriers.
func (s *Sim) SetMaxEvents(limit uint64) { s.maxEvents = limit }

// Handler returns node v's handler (tests use this to inspect final state).
func (s *Sim) Handler(v graph.NodeID) Handler { return s.handlers[s.li(v)] }

// Graph returns the simulated topology.
func (s *Sim) Graph() *graph.Graph { return s.g }

// Stats snapshots the costs accrued so far: the current simulation time
// and the message/ack counters, with the per-protocol breakdown
// materialized as a map. In ModeSingle the snapshot is exact at any point.
// In ModeMulti the counters are the committed prefix — everything up to
// the last window barrier. Calling Stats while a parallel window is
// actually in flight — possible only from another goroutine or from
// inside a handler — panics instead of returning numbers that are stale
// by an unknowable in-flight amount. core.SynchronizeUnknownBound bills
// doubling attempts that abort before Run returns (Theorem 5.4's Σ 2^t
// accounting) from this snapshot.
func (s *Sim) Stats() (now float64, msgs, acks uint64, perProto map[Proto]uint64) {
	if s.inWindow {
		panic("async: Stats called while a parallel window is in flight; mid-run snapshots are defined only between barriers (or any time in ModeSingle)")
	}
	return s.now, s.msgs, s.acks, s.perProtoMap()
}

// FaultStats snapshots the fault-plane counters, under the same
// committed-prefix contract as Stats.
func (s *Sim) FaultStats() (dropped, retrans, undeliverable uint64) {
	if s.inWindow {
		panic("async: FaultStats called while a parallel window is in flight")
	}
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

// outBodies returns the typed-output slab, allocating and publishing it on
// first use. Workers write only their owned nodes' slots; the atomic
// pointer publication orders the allocation before any cross-worker read.
func (s *Sim) outBodies() []wire.Body {
	if p := s.outBodyP.Load(); p != nil {
		return *p
	}
	s.outMu.Lock()
	defer s.outMu.Unlock()
	if p := s.outBodyP.Load(); p != nil {
		return *p
	}
	sl := make([]wire.Body, s.g.NLocal())
	s.outBodyP.Store(&sl)
	return sl
}

// outAnys is outBodies' counterpart for the boxed escape slab.
func (s *Sim) outAnys() []any {
	if p := s.outAnyP.Load(); p != nil {
		return *p
	}
	s.outMu.Lock()
	defer s.outMu.Unlock()
	if p := s.outAnyP.Load(); p != nil {
		return *p
	}
	sl := make([]any, s.g.NLocal())
	s.outAnyP.Store(&sl)
	return sl
}

// loadedOutBodies returns the typed-output slab or nil if no typed output
// has ever been recorded (readers treat nil as all-zero).
func (s *Sim) loadedOutBodies() []wire.Body {
	if p := s.outBodyP.Load(); p != nil {
		return *p
	}
	return nil
}

// loadedOutAnys is loadedOutBodies' counterpart for the boxed slab.
func (s *Sim) loadedOutAnys() []any {
	if p := s.outAnyP.Load(); p != nil {
		return *p
	}
	return nil
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
	for k := range s.shards {
		s.shards[k].reset()
	}
	s.sharded = false
	s.eventSq = 0
	s.now = 0
	s.direct.now = 0
	s.direct.curSeq = 0
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
	outB, outA := s.loadedOutBodies(), s.loadedOutAnys()
	for i := range s.hasOut {
		s.hasOut[i] = false
	}
	for i := range outB {
		outB[i] = wire.Body{}
	}
	for i := range outA {
		outA[i] = nil
	}
	s.outCount = 0
	s.lastOutputTime = 0
	s.msgs, s.acks = 0, 0
	s.dropped, s.retrans, s.undeliv = 0, 0, 0
	for i := range s.perProto {
		s.perProto[i] = 0
	}
	s.trace = s.trace[:0]
	// Clear worker staging state: a run that panicked mid-window (the
	// recoverable engine-panic idiom core.tryBound relies on) leaves
	// staged events, counters, and possibly a recorded panic behind.
	for k := range s.wctx {
		c := &s.wctx[k]
		c.now, c.maxT, c.lastOut = 0, 0, 0
		c.curSeq, c.msgs, c.acks, c.steps = 0, 0, 0, 0
		c.dropped, c.retrans, c.undeliv = 0, 0, 0
		c.outCount = 0
		for i := range c.perProto {
			c.perProto[i] = 0
		}
		c.staged = c.staged[:0]
		c.trace = c.trace[:0]
	}
	for k := range s.workerPanics {
		s.workerPanics[k] = nil
	}
	s.inWindow = false
	s.mk = mk
	s.arena.Reset()
	s.shardMode = false
	s.shardLog = s.shardLog[:0]
	for i := range s.handlers {
		s.nodes[i].ctxIdx = ctxDirect
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
	mode := s.mode
	if mode == ModeAuto {
		mode = ModeSingle
		if execpolicy.AsyncAuto(s.workers, s.g.Links(), s.lookahead, false) == execpolicy.AsyncWindows {
			mode = ModeMulti
		}
	}
	if mode == ModeMulti {
		s.runWindows()
	} else {
		s.runSerial()
	}
	return s.result()
}

func (s *Sim) runSerial() {
	if !s.resumed {
		for i := range s.handlers {
			s.handlers[i].Init(&s.nodes[i])
		}
	}
	var ev event
	for !s.events.empty() {
		s.events.pop(&ev)
		if ev.t < s.now {
			panic(fmt.Sprintf("async: time went backwards: %g < %g", ev.t, s.now))
		}
		s.now = ev.t
		s.steps++
		if s.steps > s.maxEvents {
			panic(fmt.Sprintf("async: exceeded %d events at t=%g (livelock?)", s.maxEvents, s.now))
		}
		s.direct.processEvent(&ev)
	}
}

// runWindows is the bounded-lag executor: repeatedly take the earliest
// queued timestamp wStart, execute every event in [wStart, wStart +
// lookahead) — the adversary's MinDelay guarantees no event processed in
// the window can schedule anything inside it, in exact floating-point
// arithmetic too, since fl(t+d) is monotone in t and d — and merge the
// staged effects deterministically at the barrier.
func (s *Sim) runWindows() {
	w := s.workers
	if w < 1 {
		w = 1
	}
	s.ensureWindowState(w)
	s.sharded = true
	defer func() {
		s.sharded = false
		s.inWindow = false
		for i := range s.nodes {
			s.nodes[i].ctxIdx = ctxDirect
		}
	}()
	// Init runs serially through the direct context (its schedules route
	// to the shards), exactly as in ModeSingle. A resumed run skips Init —
	// its events were restored into the serial queue and are dealt to the
	// owner shards instead, identities (t, seq) intact.
	if s.resumed {
		s.dealRestoredEvents()
	} else {
		for i := range s.handlers {
			s.handlers[i].Init(&s.nodes[i])
		}
	}
	for i := range s.nodes {
		s.nodes[i].ctxIdx = int32(i%w) + 1
	}
	// Fan out to goroutines only when windows are actually populated: the
	// previous window's event count is the predictor (window occupancy is
	// unknowable before draining, and total queue size is the wrong
	// proxy — a tiny-lookahead adversary keeps thousands of events queued
	// while every window holds one). A forced ModeMulti under such an
	// adversary therefore stays on the inline staging path — same merge,
	// same results, no per-event goroutine barrier.
	prevWindow := 0
	for {
		wStart, ok := s.minShardT()
		if !ok {
			break
		}
		if wStart < s.now {
			panic(fmt.Sprintf("async: time went backwards: %g < %g", wStart, s.now))
		}
		wEnd := wStart + s.lookahead
		s.inWindow = true
		if w == 1 || prevWindow < s.minParallel {
			for k := range s.shards {
				s.runShard(k, wEnd)
			}
		} else {
			var wg sync.WaitGroup
			for k := 0; k < w; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					defer func() {
						if p := recover(); p != nil {
							s.workerPanics[k] = p
						}
					}()
					s.runShard(k, wEnd)
				}(k)
			}
			wg.Wait()
			for k := 0; k < w; k++ {
				if p := s.workerPanics[k]; p != nil {
					panic(p)
				}
			}
		}
		stepsBefore := s.steps
		s.mergeWindow()
		s.inWindow = false
		prevWindow = int(s.steps - stepsBefore)
	}
}

// ensureWindowState sizes the shard queues and worker contexts, reusing
// them across Reset cycles when the worker count is unchanged.
func (s *Sim) ensureWindowState(w int) {
	if len(s.shards) != w {
		s.shards = make([]eventQueue, w)
		s.wctx = make([]execCtx, w)
		for k := range s.wctx {
			s.wctx[k] = execCtx{s: s}
		}
		s.workerPanics = make([]any, w)
		s.mergeCur = make([]int, w)
	}
	for k := range s.wctx {
		c := &s.wctx[k]
		c.maxT = 0
		c.lastOut = 0
	}
}

// dealRestoredEvents moves snapshot-restored events from the serial queue
// into the owner shards of a parallel run. Sequence numbers survived the
// snapshot, so shard pop order — and therefore the continuation — matches
// the serial engine's exactly.
func (s *Sim) dealRestoredEvents() {
	var ev event
	for !s.events.empty() {
		s.events.pop(&ev)
		s.shards[int(ownerOf(&ev))%len(s.shards)].push(&ev)
	}
}

// minShardT returns the earliest timestamp across all shards.
func (s *Sim) minShardT() (float64, bool) {
	best, any := 0.0, false
	for k := range s.shards {
		if t, ok := s.shards[k].minT(); ok && (!any || t < best) {
			best, any = t, true
		}
	}
	return best, any
}

// runShard drains one shard's slice of the window in (t, seq) order.
func (s *Sim) runShard(k int, wEnd float64) {
	c := &s.wctx[k]
	q := &s.shards[k]
	var ev event
	for q.popBefore(wEnd, &ev) {
		c.steps++
		c.maxT = ev.t // shards pop in nondecreasing t
		c.processEvent(&ev)
	}
}

// mergeWindow folds every worker's staged effects back into the engine in
// the exact order the serial engine would have produced them: counters are
// plain sums and maxima; staged schedules and trace entries k-way merge by
// their triggering event's (t, seq) — each worker's buffer is already
// sorted by that key because shards process their events in order, and no
// key appears in two buffers because each event has one owner.
func (s *Sim) mergeWindow() {
	for k := range s.wctx {
		c := &s.wctx[k]
		s.msgs += c.msgs
		s.acks += c.acks
		s.steps += c.steps
		s.dropped += c.dropped
		s.retrans += c.retrans
		s.undeliv += c.undeliv
		s.outCount += c.outCount
		c.msgs, c.acks, c.steps, c.outCount = 0, 0, 0, 0
		c.dropped, c.retrans, c.undeliv = 0, 0, 0
		if c.lastOut > s.lastOutputTime {
			s.lastOutputTime = c.lastOut
		}
		if c.maxT > s.now {
			s.now = c.maxT
		}
		for p, n := range c.perProto {
			if n != 0 {
				s.perProto = bumpProtoBy(s.perProto, Proto(p), n)
				c.perProto[p] = 0
			}
		}
	}
	if s.steps > s.maxEvents {
		panic(fmt.Sprintf("async: exceeded %d events at t=%g (livelock?)", s.maxEvents, s.now))
	}
	// Merge staged schedules; seq assignment happens in merge order, which
	// reproduces the serial engine's schedule-call order exactly.
	mergeWorkerLists(s.mergeCur, len(s.wctx),
		func(k int) []stagedEv { return s.wctx[k].staged },
		stagedLess,
		func(se *stagedEv) { s.schedule(&se.ev) })
	for k := range s.wctx {
		s.wctx[k].staged = s.wctx[k].staged[:0]
	}
	if s.keepTrace {
		mergeWorkerLists(s.mergeCur, len(s.wctx),
			func(k int) []TraceEntry { return s.wctx[k].trace },
			traceLess,
			func(te *TraceEntry) { s.trace = append(s.trace, *te) })
		for k := range s.wctx {
			s.wctx[k].trace = s.wctx[k].trace[:0]
		}
	}
}

// mergeWorkerLists k-way merges the workers' per-window buffers. Each list
// is already sorted by `less` (workers emit in their shard's (t, seq)
// processing order) and no key appears in two lists (one owner per event),
// so a stable scan-for-minimum reproduces the global serial order.
func mergeWorkerLists[T any](cur []int, n int, list func(k int) []T,
	less func(a, b *T) bool, emit func(*T)) {
	for k := 0; k < n; k++ {
		cur[k] = 0
	}
	for {
		best := -1
		for k := 0; k < n; k++ {
			l := list(k)
			if cur[k] == len(l) {
				continue
			}
			if best < 0 || less(&l[cur[k]], &list(best)[cur[best]]) {
				best = k
			}
		}
		if best < 0 {
			return
		}
		emit(&list(best)[cur[best]])
		cur[best]++
	}
}

func stagedLess(a, b *stagedEv) bool {
	if a.trigT != b.trigT {
		return a.trigT < b.trigT
	}
	return a.trigSeq < b.trigSeq
}

func traceLess(a, b *TraceEntry) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	return a.Seq < b.Seq
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
	outB, outA := s.loadedOutBodies(), s.loadedOutAnys()
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

// DecodedOutputs materializes the user-facing output map of a dense-mode
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

// execCtx is one execution context: the direct (apply-immediately) context
// of the serial engine and Init phase, or one ModeMulti worker's private
// staging state. A single code path serves both — the hot-path branch on
// `direct` keeps the two modes impossible to drift apart.
type execCtx struct {
	s      *Sim
	direct bool

	// now/curSeq identify the event being processed (the parallel schedule
	// staging keys on them; the direct context mirrors Sim.now).
	now    float64
	curSeq uint64

	// Worker-private effect staging, merged at the window barrier.
	msgs, acks uint64
	steps      uint64
	dropped    uint64
	retrans    uint64
	undeliv    uint64
	outCount   int
	lastOut    float64
	maxT       float64
	perProto   []uint64
	staged     []stagedEv
	trace      []TraceEntry
}

// stagedEv is one deferred schedule call, keyed by the event that issued it.
type stagedEv struct {
	ev      event
	trigT   float64
	trigSeq uint64
}

// processEvent executes one event against this context.
func (c *execCtx) processEvent(ev *event) {
	s := c.s
	c.now = ev.t
	c.curSeq = ev.seq
	switch ev.kind {
	case evDeliver:
		if s.keepTrace {
			te := TraceEntry{T: ev.t, Seq: ev.seq, From: ev.src, To: ev.dst, Msg: ev.msg}
			if c.direct {
				s.trace = append(s.trace, te)
			} else {
				c.trace = append(c.trace, te)
			}
		}
		dst := s.li(ev.dst)
		s.handlers[dst].Recv(&s.nodes[dst], ev.src, ev.msg)
		// Ack travels back; its arrival frees the link.
		if c.direct {
			s.acks++
		} else {
			c.acks++
		}
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
		c.schedule(&event{t: c.now + d, kind: evAckArrive, link: ev.link, src: ev.src, dst: ev.dst, msg: ev.msg})
	case evAckArrive:
		// ev.src is the original sender whose link is now free.
		s.busy[ev.link] = false
		c.dispatch(ev.src, ev.dst, ev.link)
		src := s.li(ev.src)
		s.handlers[src].Ack(&s.nodes[src], ev.dst, ev.msg)
		// The ack ends the message's lifecycle; recycle any segment
		// (receivers copy data out if they keep it). No-op without one.
		s.arena.Release(ev.msg.Body.Seg)
	case evRetrans:
		// A backoff timer fired: retry the lost transmission. The link has
		// stayed in flight since the original send, so the attempt re-enters
		// at transmit, not send — no handler runs for this event.
		s.transmit(c, ev.src, ev.dst, ev.link, &ev.msg, ev.attempt)
	}
}

func (c *execCtx) send(from, to graph.NodeID, m Msg) {
	s := c.s
	l := s.g.LinkBetween(from, to)
	if l < 0 {
		panic(fmt.Sprintf("async: node %d sending to non-neighbor %d", from, to))
	}
	if c.direct {
		s.msgs++
		s.perProto = bumpProtoBy(s.perProto, m.Proto, 1)
	} else {
		c.msgs++
		c.perProto = bumpProtoBy(c.perProto, m.Proto, 1)
	}
	if !s.busy[l] {
		// Uncontended fast path: an idle link's queue is necessarily empty
		// (a queued message implies an in-flight one), so push+pop of this
		// single message collapses to direct injection — no outbox is ever
		// allocated for a link that never queues behind an in-flight send.
		s.inject(c, from, to, l, &m)
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
func (s *Sim) inject(c *execCtx, from, to graph.NodeID, l graph.LinkID, m *Msg) {
	s.busy[l] = true
	s.transmit(c, from, to, l, m, 0)
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
func (s *Sim) transmit(c *execCtx, from, to graph.NodeID, l graph.LinkID, m *Msg, attempt uint8) {
	txs := uint64(s.txSeq[l])
	d := s.adv.Delay(from, to, txs, m.Proto)
	s.bumpTx(l)
	s.checkDelay(d)
	td := c.now + d
	if s.faults == nil || !s.faults.Lost(from, to, txs, td) {
		c.schedule(&event{t: td, kind: evDeliver, link: l, src: from, dst: to, msg: *m})
		return
	}
	if c.direct {
		s.dropped++
	} else {
		c.dropped++
	}
	if int(attempt) >= s.faults.Budget {
		c.undeliverable(from, to, l, *m)
		return
	}
	if c.direct {
		s.retrans++
	} else {
		c.retrans++
	}
	b := s.faults.backoff(attempt, s.lookahead)
	c.schedule(&event{t: c.now + b, kind: evRetrans, link: l, src: from, dst: to, msg: *m, attempt: attempt + 1})
}

// undeliverable abandons a message whose retransmit budget is exhausted:
// record the typed trace entry under the triggering event's (t, seq) key,
// release the payload segment (the lifecycle that would have ended at the
// ack ends here), free the link, and dispatch its next queued message. The
// engine always quiesces — protocol-level stalls under faults are surfaced
// by watchdogs (core.StallReport), never as hangs.
func (c *execCtx) undeliverable(from, to graph.NodeID, l graph.LinkID, m Msg) {
	s := c.s
	if c.direct {
		s.undeliv++
	} else {
		c.undeliv++
	}
	if s.keepTrace {
		te := TraceEntry{T: c.now, Seq: c.curSeq, From: from, To: to, Msg: m, Kind: TraceUndeliverable}
		if c.direct {
			s.trace = append(s.trace, te)
		} else {
			c.trace = append(c.trace, te)
		}
	}
	s.arena.Release(m.Body.Seg)
	s.busy[l] = false
	c.dispatch(from, to, l)
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
func (c *execCtx) dispatch(from, to graph.NodeID, l graph.LinkID) {
	s := c.s
	ob := s.boxes[l]
	if ob == nil {
		return
	}
	m, ok := ob.pop()
	if !ok {
		return
	}
	s.inject(c, from, to, l, &m)
}

// checkDelay enforces both the model's (0,1] delay contract and the
// adversary's own MinDelay declaration — the bounded-lag mode's safety
// rests on the latter, so violating it fails loudly in every mode.
func (s *Sim) checkDelay(d float64) {
	if d <= 0 || d > 1 {
		panic(fmt.Sprintf("async: adversary %q returned delay %g outside (0,1]", s.adv.Name(), d))
	}
	if d < s.lookahead {
		panic(fmt.Sprintf("async: adversary %q returned delay %g below its declared MinDelay %g",
			s.adv.Name(), d, s.lookahead))
	}
}

func (c *execCtx) schedule(ev *event) {
	if c.direct {
		s := c.s
		if s.shardMode {
			// Event seqs are assigned by the coordinator's cross-shard
			// merge; park the call keyed by its triggering event, exactly
			// like ModeMulti worker staging.
			s.shardLog = append(s.shardLog, stagedEv{ev: *ev, trigT: c.now, trigSeq: c.curSeq})
			return
		}
		s.schedule(ev)
		return
	}
	c.staged = append(c.staged, stagedEv{ev: *ev, trigT: c.now, trigSeq: c.curSeq})
}

func (s *Sim) schedule(ev *event) {
	ev.seq = s.eventSq
	s.eventSq++
	if s.sharded {
		s.shards[int(ownerOf(ev))%len(s.shards)].push(ev)
	} else {
		s.events.push(ev)
	}
}

// ownerOf is the node whose handler the event invokes: deliveries run the
// receiver, ack-returns run the original sender. Owner-sharding makes every
// piece of state an event touches — the handler, the node's outgoing
// outboxes and transmission counters, its output slot — private to one
// worker within a window.
func ownerOf(ev *event) graph.NodeID {
	if ev.kind == evDeliver {
		return ev.dst
	}
	return ev.src
}

// noteFirstOutput updates the time-to-output clock for a node's first
// Output call.
func (c *execCtx) noteFirstOutput() {
	s := c.s
	if c.direct {
		s.outCount++
		if s.now > s.lastOutputTime {
			s.lastOutputTime = s.now
		}
		return
	}
	c.outCount++
	if c.now > c.lastOut {
		c.lastOut = c.now
	}
}

func (c *execCtx) setOutputBody(id graph.NodeID, b wire.Body) {
	if b.Kind == 0 {
		panic(fmt.Sprintf("async: node %d output a Body with zero Kind", id))
	}
	s := c.s
	i := s.li(id)
	if !s.hasOut[i] {
		s.hasOut[i] = true
		c.noteFirstOutput()
	}
	s.outBodies()[i] = b
	if outA := s.loadedOutAnys(); outA != nil {
		outA[i] = nil
	}
}

func (c *execCtx) setOutput(id graph.NodeID, v any) {
	if b, ok := outval.Encode(v); ok {
		c.setOutputBody(id, b)
		return
	}
	s := c.s
	i := s.li(id)
	if !s.hasOut[i] {
		s.hasOut[i] = true
		c.noteFirstOutput()
	}
	if outB := s.loadedOutBodies(); outB != nil {
		outB[i] = wire.Body{}
	}
	s.outAnys()[i] = v
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
