package main

import (
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// layer names one traced boundary of the synchronizer stack. Spans are
// recorded around the calls into each layer from the benchmark's own
// wrappers; the program itself is untouched.
type layer int

const (
	// layerMux is the node handler the engine calls (Init/Recv/Ack) when
	// the stack is a Mux; its self time is the Mux's routing.
	layerMux layer = iota
	// layerCore is the synchronizer core: the Mux module on ProtoAlgo and
	// ProtoTree, or the whole α node handler.
	layerCore
	// layerReg and layerGather are the per-cover-level registration and
	// barrier Mux modules. Core work they trigger through their callbacks
	// runs inside their spans.
	layerReg
	layerGather
	// layerApps is the synchronous algorithm (syncrun.Handler).
	layerApps
	numLayers
)

var layerNames = [numLayers]string{"async.mux", "core", "reg", "gather", "apps"}

// layerAcc accumulates one layer's spans on one node.
type layerAcc struct {
	Busy  int64 `json:"busy_ns"` // inclusive span time
	Self  int64 `json:"self_ns"` // minus time in nested spans of other layers
	Calls int64 `json:"calls"`
}

type frame struct {
	l      layer
	t0     int64
	nested int64
}

// nodeTrace is one node's span state. The engine runs at most one handler
// call per node at a time in every executor (speculative clones of a node
// and its commit-walk repairs are never concurrent), so the original
// handler and its clones can share it without locking.
type nodeTrace struct {
	acc   [numLayers]layerAcc
	top   int64 // time inside the outermost span, i.e. inside the handler
	stack []frame
	epoch time.Time
}

func (nt *nodeTrace) enter(l layer) {
	nt.stack = append(nt.stack, frame{l: l, t0: int64(time.Since(nt.epoch))})
}

func (nt *nodeTrace) exit() {
	now := int64(time.Since(nt.epoch))
	f := nt.stack[len(nt.stack)-1]
	nt.stack = nt.stack[:len(nt.stack)-1]
	d := now - f.t0
	a := &nt.acc[f.l]
	a.Busy += d
	a.Self += d - f.nested
	a.Calls++
	if len(nt.stack) > 0 {
		nt.stack[len(nt.stack)-1].nested += d
	} else {
		nt.top += d
	}
}

// tracer holds one traced job's per-node span state.
type tracer struct {
	nodes []nodeTrace
}

func newTracer(n int) *tracer {
	t := &tracer{nodes: make([]nodeTrace, n)}
	now := time.Now()
	for i := range t.nodes {
		t.nodes[i].epoch = now
	}
	return t
}

// jobSpans is one job's per-layer span totals, kept in memory and written
// out when the benchmark ends.
type jobSpans struct {
	Job     int                 `json:"job"`
	Graph   int                 `json:"graph"`
	Traced  bool                `json:"traced"`
	StartNs int64               `json:"start_ns"`
	EndNs   int64               `json:"end_ns"`
	Handler int64               `json:"in_handler_ns"`
	Layers  map[string]layerAcc `json:"layers,omitempty"`
}

// sum folds the per-node accumulators into layer totals.
func (t *tracer) sum() (acc [numLayers]layerAcc, top int64) {
	for i := range t.nodes {
		nt := &t.nodes[i]
		for l := range acc {
			acc[l].Busy += nt.acc[l].Busy
			acc[l].Self += nt.acc[l].Self
			acc[l].Calls += nt.acc[l].Calls
		}
		top += nt.top
	}
	return acc, top
}

// tracedHandler wraps the engine-facing node handler. It forwards the
// state codec so snapshots and clones see the inner handler's state.
type tracedHandler struct {
	inner async.Handler
	nt    *nodeTrace
	l     layer
}

func (h *tracedHandler) Init(n *async.Node) {
	h.nt.enter(h.l)
	h.inner.Init(n)
	h.nt.exit()
}

func (h *tracedHandler) Recv(n *async.Node, from graph.NodeID, m async.Msg) {
	h.nt.enter(h.l)
	h.inner.Recv(n, from, m)
	h.nt.exit()
}

func (h *tracedHandler) Ack(n *async.Node, to graph.NodeID, m async.Msg) {
	h.nt.enter(h.l)
	h.inner.Ack(n, to, m)
	h.nt.exit()
}

func (h *tracedHandler) SaveState(e *wire.Enc) { h.inner.(wire.StateCodec).SaveState(e) }
func (h *tracedHandler) LoadState(d *wire.Dec) { h.inner.(wire.StateCodec).LoadState(d) }
func (h *tracedHandler) StateCodecOK() bool    { return codecOK(h.inner) }

// tracedCloner is a tracedHandler around an async.StateCloner: only
// cloneable handlers stay cloneable, so the engine's Auto policy picks the
// same executor with and without tracing.
type tracedCloner struct{ tracedHandler }

func (h *tracedCloner) CloneStateInto(dst async.Handler) {
	h.inner.(async.StateCloner).CloneStateInto(dst.(*tracedCloner).inner)
}

func wrapHandler(inner async.Handler, nt *nodeTrace, l layer) async.Handler {
	th := tracedHandler{inner: inner, nt: nt, l: l}
	if _, ok := inner.(async.StateCloner); ok {
		return &tracedCloner{th}
	}
	return &th
}

// codecOK mirrors the engine's serializability probe for a wrapped value.
func codecOK(v any) bool {
	if pr, ok := v.(async.StateCodecProbe); ok {
		return pr.StateCodecOK()
	}
	_, ok := v.(wire.StateCodec)
	return ok
}

// tracedModule wraps one Mux module.
type tracedModule struct {
	inner async.Module
	nt    *nodeTrace
	l     layer
}

func (m *tracedModule) Start(n *async.Node) {
	m.nt.enter(m.l)
	m.inner.Start(n)
	m.nt.exit()
}

func (m *tracedModule) Recv(n *async.Node, from graph.NodeID, msg async.Msg) {
	m.nt.enter(m.l)
	m.inner.Recv(n, from, msg)
	m.nt.exit()
}

func (m *tracedModule) Ack(n *async.Node, to graph.NodeID, msg async.Msg) {
	m.nt.enter(m.l)
	m.inner.Ack(n, to, msg)
	m.nt.exit()
}

func (m *tracedModule) SaveState(e *wire.Enc) { m.inner.(wire.StateCodec).SaveState(e) }
func (m *tracedModule) LoadState(d *wire.Dec) { m.inner.(wire.StateCodec).LoadState(d) }
func (m *tracedModule) StateCodecOK() bool    { return codecOK(m.inner) }

// stackProtos lists the protos core.NewNodeHandler registers, in its
// registration order (the order Mux.Init starts modules and the state
// codec serializes them).
func stackProtos(sched *core.Schedule) []async.Proto {
	ps := []async.Proto{core.ProtoAlgo, core.ProtoTree}
	for lvl := 5; lvl <= sched.MaxCoverLevel; lvl++ {
		ps = append(ps, core.ProtoRegBase+async.Proto(lvl), core.ProtoBarrierBase+async.Proto(lvl))
	}
	return ps
}

func protoLayer(p async.Proto) layer {
	switch {
	case p >= core.ProtoBarrierBase:
		return layerGather
	case p >= core.ProtoRegBase:
		return layerReg
	}
	return layerCore
}

// traceMux rebuilds the Mux from core.NewNodeHandler with every module
// wrapped. A module registered under several protos (the core owns
// ProtoAlgo and ProtoTree) keeps one wrapper, so the Mux still starts and
// serializes it once.
func traceMux(orig *async.Mux, sched *core.Schedule, nt *nodeTrace) *async.Mux {
	mux := async.NewMux()
	type pair struct{ inner, wrapped async.Module }
	var seen []pair
	for _, p := range stackProtos(sched) {
		mod := orig.Module(p)
		if mod == nil {
			panic("perfbench: core.NewNodeHandler registered no module on a stack proto")
		}
		var w async.Module
		for _, s := range seen {
			if s.inner == mod {
				w = s.wrapped
			}
		}
		if w == nil {
			w = &tracedModule{inner: mod, nt: nt, l: protoLayer(p)}
			seen = append(seen, pair{mod, w})
		}
		mux.Register(p, w)
	}
	return mux
}

// tracedAlgo wraps the synchronous algorithm.
type tracedAlgo struct {
	inner syncrun.Handler
	nt    *nodeTrace
}

func (a *tracedAlgo) Init(n syncrun.API) {
	a.nt.enter(layerApps)
	a.inner.Init(n)
	a.nt.exit()
}

func (a *tracedAlgo) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	a.nt.enter(layerApps)
	a.inner.Pulse(n, p, recvd)
	a.nt.exit()
}

func (a *tracedAlgo) SaveState(e *wire.Enc) { a.inner.(wire.StateCodec).SaveState(e) }
func (a *tracedAlgo) LoadState(d *wire.Dec) { a.inner.(wire.StateCodec).LoadState(d) }
