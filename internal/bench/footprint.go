package bench

import (
	"runtime"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// mustSpec builds a graph from a FromSpec string that is known valid
// (Run pre-validates Options.Graph; experiment built-ins are static).
func mustSpec(spec string) *graph.Graph {
	g, err := graph.FromSpec(spec)
	if err != nil {
		panic("bench: bad graph spec: " + err.Error())
	}
	return g
}

// RetainedBytes reports how many heap bytes the object returned by build
// keeps live: settled HeapAlloc with the object held, minus settled
// HeapAlloc before building it. "Settled" means after back-to-back forced
// collections, so construction churn that has already become garbage is
// excluded — this is the footprint that stays resident at 10M nodes, not
// the allocation traffic on the way there. The probe is process-global
// state (one heap per process), so callers must not run it concurrently
// with other measured work.
func RetainedBytes(build func() any) int64 {
	base := settledHeap()
	obj := build()
	delta := int64(settledHeap()) - int64(base)
	runtime.KeepAlive(obj)
	if delta < 0 {
		delta = 0
	}
	return delta
}

// settledHeap returns HeapAlloc after two forced collections: the first
// finishes any concurrent cycle already in flight, the second collects
// from a clean mark so floating garbage does not linger in the reading.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// leanFlood is the async footprint workload: one flood from node 0 with a
// single bool of per-node handler state. Handler footprint stays a rounding
// error, so retained bytes after a run measure the engine's own per-link
// and per-node state — outboxes, stamps, wheels — with every link exercised
// once in each direction.
type leanFlood struct{ seen bool }

func (h *leanFlood) relay(n *async.Node, m async.Msg) {
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, m)
	}
}

func (h *leanFlood) Init(n *async.Node) {
	if n.ID() != 0 {
		return
	}
	h.seen = true
	h.relay(n, async.Msg{Proto: 10, Body: wire.Tag(1)})
}

func (h *leanFlood) Recv(n *async.Node, _ graph.NodeID, m async.Msg) {
	if h.seen {
		return
	}
	h.seen = true
	h.relay(n, m)
}

func (h *leanFlood) Ack(*async.Node, graph.NodeID, async.Msg) {}

// leanWave is the lockstep sibling of leanFlood: a one-bool wave from
// node 0, so a finished Runner's retained bytes are engine state (pulse
// buffers, CONGEST stamps, activation bitmaps), not handler payload.
type leanWave struct{ seen bool }

func (h *leanWave) Init(n syncrun.API) {
	if n.ID() != 0 {
		return
	}
	h.seen = true
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, wire.Tag(1))
	}
}

func (h *leanWave) Pulse(n syncrun.API, _ int, recvd []syncrun.Incoming) {
	if h.seen || len(recvd) == 0 {
		return
	}
	h.seen = true
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, wire.Tag(1))
	}
}

// AsyncRetainedBytes measures the asynchronous engine's resident footprint
// on g: retained heap bytes of a simulator that has completed one full
// leanFlood run (so lazily allocated per-link state for every active link
// is present), excluding the graph itself, which the caller keeps alive
// across the measurement.
func AsyncRetainedBytes(g *graph.Graph) int64 {
	return RetainedBytes(func() any {
		sim := async.New(g, async.Fixed{D: 1}, func(graph.NodeID) async.Handler {
			return &leanFlood{}
		})
		sim.Run()
		return sim
	})
}

// SyncRetainedBytes measures the lockstep engine's resident footprint on
// g, mirroring AsyncRetainedBytes: retained bytes of a Runner that has
// completed one leanWave run, excluding the graph.
func SyncRetainedBytes(g *graph.Graph) int64 {
	return RetainedBytes(func() any {
		r := syncrun.New(g, func(graph.NodeID) syncrun.Handler {
			return &leanWave{}
		})
		r.Run()
		return r
	})
}

// GraphRetainedBytes measures the graph plane itself: retained bytes of
// the CSR arrays (offsets, targets, link table, reverse links, weights)
// built from spec.
func GraphRetainedBytes(spec string) (int64, error) {
	var err error
	b := RetainedBytes(func() any {
		var g *graph.Graph
		g, err = graph.FromSpec(spec)
		return g
	})
	if err != nil {
		return 0, err
	}
	return b, nil
}
