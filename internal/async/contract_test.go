package async

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// multiFlood is the matrix workload: node 0 starts k concurrent floods
// (distinct protos, staggered stages), every node re-floods each proto
// once and outputs how many protos it has seen. It exercises outbox stage
// priority, per-stage round-robin, per-proto accounting, and typed outputs
// under heavy link contention.
type multiFlood struct {
	NopAck
	k    int
	seen map[Proto]bool
}

func (h *multiFlood) Init(n *Node) {
	h.seen = make(map[Proto]bool)
	if n.ID() != 0 {
		return
	}
	for i := 0; i < h.k; i++ {
		p := Proto(10 + i)
		h.seen[p] = true
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, Msg{Proto: p, Stage: i % 2, Body: wire.Body{Kind: 1, A: int64(i)}})
		}
	}
	n.Output(len(h.seen))
}

func (h *multiFlood) Recv(n *Node, _ graph.NodeID, m Msg) {
	if h.seen[m.Proto] {
		return
	}
	h.seen[m.Proto] = true
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, m)
	}
	n.Output(len(h.seen))
}

// matrixGraphs are the fault- and snapshot-matrix topologies: a contention-free
// path, a cycle, a grid, a hub-heavy star, and an irregular random graph.
func matrixGraphs(seed uint64) []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"path40", graph.Path(40)},
		{"cycle48", graph.Cycle(48)},
		{"grid7x9", graph.Grid(7, 9)},
		{"star32", graph.Star(32)},
		{"er60", graph.RandomConnected(60, 150, seed)},
	}
}

func matrixAdversaries(n int, seed uint64) []Adversary {
	return []Adversary{
		Fixed{D: 1},
		Fixed{D: 0.37},
		SeededRandom{Seed: seed},
		Skew{Cut: graph.NodeID(n / 2), FastD: 1.0 / 64},
		Flaky{Seed: seed ^ 0xABCD},
		EdgeLottery{Seed: seed ^ 0x1234},
	}
}

// summarize keeps matrix failure output readable (traces run to thousands
// of entries).
func summarize(r Result) Result {
	if len(r.Trace) > 8 {
		r.Trace = r.Trace[:8]
	}
	return r
}

// TestMinDelayContract samples every shipped adversary across endpoints,
// sequence numbers, and protos, asserting no Delay ever undercuts the
// declared MinDelay (the shard window protocol's safety condition) or
// leaves the model's (0,1] range.
func TestMinDelayContract(t *testing.T) {
	const n = 64
	advs := []Adversary{
		Fixed{D: 1},
		Fixed{D: 0.25},
		Fixed{D: 0},   // clamps to the minimum positive delay
		Fixed{D: 1.5}, // clamps to 1
		SeededRandom{Seed: 1},
		SeededRandom{Seed: 0xDEAD},
		Skew{Cut: n / 2, FastD: 1.0 / 64},
		Skew{Cut: 0, FastD: 0.5},
		Flaky{Seed: 7},
		EdgeLottery{Seed: 7},
	}
	for _, adv := range StandardAdversaries(n, 99) {
		advs = append(advs, adv)
	}
	for _, adv := range advs {
		min := adv.MinDelay()
		if min <= 0 || min > 1 {
			t.Fatalf("%s: MinDelay %g outside (0,1]", adv.Name(), min)
		}
		for from := 0; from < n; from += 3 {
			for to := 0; to < n; to += 5 {
				for seq := uint64(0); seq < 40; seq++ {
					for _, p := range []Proto{0, 1, 7, 200} {
						d := adv.Delay(graph.NodeID(from), graph.NodeID(to), seq, p)
						if d <= 0 || d > 1 {
							t.Fatalf("%s: Delay(%d,%d,%d,%d) = %g outside (0,1]",
								adv.Name(), from, to, seq, p, d)
						}
						if d < min {
							t.Fatalf("%s: Delay(%d,%d,%d,%d) = %g below declared MinDelay %g",
								adv.Name(), from, to, seq, p, d, min)
						}
					}
				}
			}
		}
	}
}

// TestResetReuse runs one engine through three Reset cycles across
// adversaries and requires every rerun to reproduce the fresh-engine
// Result exactly.
func TestResetReuse(t *testing.T) {
	g := graph.RandomConnected(40, 100, 21)
	mk := func(graph.NodeID) Handler { return &multiFlood{k: 3} }
	advs := []Adversary{SeededRandom{Seed: 5}, Fixed{D: 1}, Skew{Cut: 20, FastD: 1.0 / 16}}

	var reused *Sim
	for i, adv := range advs {
		want := New(g, adv, mk).Run()
		if reused == nil {
			reused = New(g, adv, mk)
		} else {
			reused.Reset(adv, mk)
		}
		got := reused.Run()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cycle %d (%s): reused engine Result differs from fresh engine", i, adv.Name())
		}
	}
}

// TestRunTwicePanicsUntilReset pins the Run/Reset lifecycle contract.
func TestRunTwicePanicsUntilReset(t *testing.T) {
	g := graph.Path(2)
	mk := func(graph.NodeID) Handler { return &floodHandler{} }
	s := New(g, Fixed{D: 1}, mk)
	s.Run()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Run without Reset should panic")
			}
		}()
		s.Run()
	}()
	s.Reset(Fixed{D: 1}, mk)
	s.Run() // must not panic
}

// lyingAdversary lies about its lookahead: MinDelay claims 0.5 but acks
// travel at 0.1. The engine must refuse the delay rather than run on a
// contract a sharded run's windows would be unsound under.
type lyingAdversary struct{ Fixed }

func (lyingAdversary) Delay(_, to graph.NodeID, _ uint64, _ Proto) float64 {
	if to == 0 {
		return 0.1 // ack direction back to node 0
	}
	return 0.5
}
func (lyingAdversary) MinDelay() float64 { return 0.5 }
func (lyingAdversary) Name() string      { return "lying" }

func TestMinDelayViolationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undercutting MinDelay should panic")
		}
	}()
	New(graph.Path(2), lyingAdversary{}, func(graph.NodeID) Handler {
		return &floodHandler{}
	}).Run()
}

// panicAt floods normally but panics when a chosen node first receives,
// with events still queued.
type panicAt struct {
	floodHandler
	trigger graph.NodeID
}

func (h *panicAt) Recv(n *Node, from graph.NodeID, m Msg) {
	if n.ID() == h.trigger && !h.seen {
		panic("boom")
	}
	h.floodHandler.Recv(n, from, m)
}

// TestResetAfterMidRunPanic pins the recoverable-panic contract the
// doubling harness relies on: after a run dies mid-way, Reset must clear
// the queued events, counters and outputs so the rearmed engine
// reproduces a fresh engine's Result exactly.
func TestResetAfterMidRunPanic(t *testing.T) {
	g := graph.RandomConnected(40, 100, 7)
	mkBoom := func(graph.NodeID) Handler { return &panicAt{trigger: 20} }
	mk := func(graph.NodeID) Handler { return &floodHandler{} }
	want := New(g, Fixed{D: 1}, mk).Run()

	s := New(g, Fixed{D: 1}, mkBoom)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the trigger panic")
			}
		}()
		s.Run()
	}()
	s.Reset(Fixed{D: 1}, mk)
	if got := s.Run(); !reflect.DeepEqual(want, got) {
		t.Fatalf("rearmed engine after mid-run panic differs from fresh engine:\n%+v\nvs\n%+v", want, got)
	}
}

// fuzzDelays is an adversary whose per-hop delays are drawn from the fuzz
// input, hashed over (from, to, seq, proto), honoring the declared
// MinDelay lo.
type fuzzDelays struct {
	data []byte
	lo   float64
}

func (f fuzzDelays) MinDelay() float64 { return f.lo }
func (f fuzzDelays) Name() string      { return "fuzz" }
func (f fuzzDelays) Delay(from, to graph.NodeID, seq uint64, p Proto) float64 {
	if len(f.data) == 0 {
		return 0.5
	}
	i := (uint64(from)*2654435761 + uint64(to)*40503 + seq*9176 + uint64(p)) % uint64(len(f.data))
	min := f.MinDelay()
	return min + (1-min)*(float64(f.data[i])+0.5)/256
}
