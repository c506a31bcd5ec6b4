package syncrun

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// syncBFS: source sends "join" at pulse 0; a node adopts the first pulse at
// which a join arrives as its distance, forwards once.
type syncBFS struct {
	src  graph.NodeID
	dist int
}

func (h *syncBFS) Init(n API) {
	h.dist = -1
	if n.ID() == h.src {
		h.dist = 0
		n.Output(0)
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, wire.Tag(1))
		}
	}
}

func (h *syncBFS) Pulse(n API, p int, recvd []Incoming) {
	if h.dist >= 0 || len(recvd) == 0 {
		return
	}
	h.dist = p
	n.Output(p)
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, wire.Tag(1))
	}
}

func TestSyncBFSDistances(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(17),
		graph.Grid(5, 8),
		graph.RandomConnected(50, 130, 2),
	} {
		want := g.BFS(0)
		res := New(g, func(graph.NodeID) Handler { return &syncBFS{src: 0} }).Run()
		if len(res.Outputs) != g.N() {
			t.Fatalf("only %d/%d outputs", len(res.Outputs), g.N())
		}
		for v, d := range want {
			if res.Outputs[graph.NodeID(v)] != d {
				t.Fatalf("node %d: output %v, want %d", v, res.Outputs[graph.NodeID(v)], d)
			}
		}
		if res.T != g.Ecc(0) {
			t.Errorf("T = %d, want ecc %d", res.T, g.Ecc(0))
		}
		// BFS sends one message per direction of each edge: M = 2m.
		if res.M != uint64(2*g.M()) {
			t.Errorf("M = %d, want %d", res.M, 2*g.M())
		}
	}
}

func TestTraceRecordsPulses(t *testing.T) {
	g := graph.Path(4)
	res := New(g, func(graph.NodeID) Handler { return &syncBFS{src: 0} }).KeepTrace().Run()
	// Pulse 0: 0->1. Pulse 1: 1->0,1->2. Pulse 2: 2->1,2->3. Pulse 3: 3->2.
	if len(res.Trace) != 6 {
		t.Fatalf("trace len = %d: %+v", len(res.Trace), res.Trace)
	}
	if res.Trace[0].Pulse != 0 || res.Trace[0].From != 0 || res.Trace[0].To != 1 {
		t.Fatalf("first trace entry = %+v", res.Trace[0])
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Pulse != 3 || last.From != 3 {
		t.Fatalf("last trace entry = %+v", last)
	}
}

// pingPong exercises the "sent last pulse" activation rule: node 0 sends one
// message, then sends again when woken by its own send (no reception).
type pingPong struct{ sends int }

func (h *pingPong) Init(n API) {
	if n.ID() == 0 {
		n.Send(1, wire.Body{Kind: 1, A: 0})
		h.sends = 1
	}
}

func (h *pingPong) Pulse(n API, p int, recvd []Incoming) {
	if n.ID() == 0 && len(recvd) == 0 && h.sends < 3 {
		// Triggered by own send of pulse p-1.
		n.Send(1, wire.Body{Kind: 1, A: int64(h.sends)})
		h.sends++
	}
	if n.ID() == 1 && len(recvd) == 3 {
		n.Output(p)
	}
	if n.ID() == 1 && len(recvd) > 0 {
		h.sends += len(recvd)
		if h.sends == 3 {
			n.Output(p)
		}
	}
}

func TestSendTriggeredActivation(t *testing.T) {
	g := graph.Path(2)
	res := New(g, func(graph.NodeID) Handler { return &pingPong{} }).Run()
	if res.M != 3 {
		t.Fatalf("M = %d, want 3 (send-triggered chain)", res.M)
	}
	if res.Outputs[1] != 3 {
		t.Fatalf("node 1 output %v, want pulse 3", res.Outputs[1])
	}
}

func TestDoubleSendPanics(t *testing.T) {
	g := graph.Path(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double send")
		}
	}()
	New(g, func(id graph.NodeID) Handler { return &doubleSender{} }).Run()
}

// leafChain runs pingPong's send-triggered chain from every leaf of a star
// at once: each leaf sends to the center at Init and again each time its own
// send wakes it, three sends in all; the center outputs the pulse at which
// the last of them arrives.
type leafChain struct {
	leaves, sends, got int
}

func (h *leafChain) Init(n API) {
	if n.ID() != 0 {
		n.Send(0, wire.Body{Kind: 1})
		h.sends = 1
	}
}

func (h *leafChain) Pulse(n API, p int, recvd []Incoming) {
	if n.ID() != 0 {
		if len(recvd) == 0 && h.sends < 3 {
			n.Send(0, wire.Body{Kind: 1, A: int64(h.sends)})
			h.sends++
		}
		return
	}
	h.got += len(recvd)
	if h.got == 3*h.leaves {
		n.Output(p)
	}
}

func TestMultiSendTriggeredActivation(t *testing.T) {
	const k = 40
	res := New(graph.Star(k+1), func(graph.NodeID) Handler { return &leafChain{leaves: k} }).Run()
	if res.M != 3*k {
		t.Fatalf("M = %d, want %d (one send-triggered chain per leaf)", res.M, 3*k)
	}
	if res.Outputs[0] != 3 {
		t.Fatalf("center output %v, want pulse 3", res.Outputs[0])
	}
}

// oneDoubleSender: every leaf of a star sends once to the center, which is
// within capacity, except leaf 7, which sends twice on the same link.
type oneDoubleSender struct{}

func (h *oneDoubleSender) Init(n API) {
	if n.ID() == 0 {
		return
	}
	n.Send(0, wire.Tag(1))
	if n.ID() == 7 {
		n.Send(0, wire.Tag(2))
	}
}
func (h *oneDoubleSender) Pulse(API, int, []Incoming) {}

func TestMultiDoubleSendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on one leaf's double send among many senders")
		}
	}()
	New(graph.Star(20), func(graph.NodeID) Handler { return &oneDoubleSender{} }).Run()
}

type doubleSender struct{}

func (h *doubleSender) Init(n API) {
	if n.ID() == 0 {
		n.Send(1, wire.Tag(1))
		n.Send(1, wire.Tag(2))
	}
}
func (h *doubleSender) Pulse(API, int, []Incoming) {}

// pulseDoubleSender violates CONGEST inside Pulse (not Init); the panic
// must surface to the caller of Run.
type pulseDoubleSender struct{}

func (h *pulseDoubleSender) Init(n API) {
	if n.ID() == 0 {
		n.Send(1, wire.Tag(1))
	}
}

func (h *pulseDoubleSender) Pulse(n API, p int, recvd []Incoming) {
	if n.ID() == 1 && len(recvd) > 0 {
		n.Send(0, wire.Tag(1))
		n.Send(0, wire.Tag(2))
	}
}

func TestPulseDoubleSendPanics(t *testing.T) {
	g := graph.Path(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double send inside Pulse")
		}
	}()
	New(g, func(graph.NodeID) Handler { return &pulseDoubleSender{} }).Run()
}

// sortChecker asserts the order-preserving delivery property that
// replaced the per-batch sort: every Pulse batch arrives sorted by sender.
type sortChecker struct {
	t    *testing.T
	seen bool
}

func (h *sortChecker) Init(n API) {
	// Star center is node 0; leaves all send to it at pulse 1.
	if n.ID() != 0 {
		n.Send(0, wire.Body{Kind: 1, A: int64(n.ID())})
	}
}

func (h *sortChecker) Pulse(n API, p int, recvd []Incoming) {
	for i := 1; i < len(recvd); i++ {
		if recvd[i-1].From >= recvd[i].From {
			h.t.Errorf("batch not sorted by sender: %v before %v", recvd[i-1].From, recvd[i].From)
		}
	}
	if n.ID() == 0 && len(recvd) > 0 {
		h.seen = true
	}
}

func TestBatchesSortedBySender(t *testing.T) {
	var center *sortChecker
	New(graph.Star(200), func(id graph.NodeID) Handler {
		h := &sortChecker{t: t}
		if id == 0 {
			center = h
		}
		return h
	}).Run()
	if !center.seen {
		t.Fatal("center received no batch")
	}
}

func TestQuiescenceWithNoInitiators(t *testing.T) {
	g := graph.Path(5)
	res := New(g, func(graph.NodeID) Handler { return &silent{} }).Run()
	if res.M != 0 || res.Rounds != 0 {
		t.Fatalf("silent run: M=%d rounds=%d", res.M, res.Rounds)
	}
}

type silent struct{}

func (h *silent) Init(API)                   {}
func (h *silent) Pulse(API, int, []Incoming) {}
