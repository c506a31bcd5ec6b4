package async

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/execpolicy"
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

// matrixGraphs are the determinism-matrix topologies: a contention-free
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

// TestBoundedLagMatrix is the determinism contract of the parallel mode:
// across adversaries x graphs x seeds x workloads, a bounded-lag run with
// a forced 4-worker pool must produce a Result — time, quiescence,
// message and ack counts, per-proto breakdown, outputs, and the full
// delivery trace — that is deep-equal to the serial run's. Run it with
// -race: it is also the engine's data-race regression test.
func TestBoundedLagMatrix(t *testing.T) {
	workloads := []struct {
		name string
		mk   func() func(graph.NodeID) Handler
	}{
		{"flood", func() func(graph.NodeID) Handler {
			return func(graph.NodeID) Handler { return &floodHandler{} }
		}},
		{"multiflood4", func() func(graph.NodeID) Handler {
			return func(graph.NodeID) Handler { return &multiFlood{k: 4} }
		}},
	}
	for _, seed := range []uint64{3, 17} {
		for _, tg := range matrixGraphs(seed) {
			for _, adv := range matrixAdversaries(tg.g.N(), seed) {
				for _, wl := range workloads {
					serial := New(tg.g, adv, wl.mk()).WithMode(ModeSingle).KeepTrace().Run()
					par := New(tg.g, adv, wl.mk()).WithMode(ModeMulti).
						WithWorkers(4).WithMinParallel(1).KeepTrace().Run()
					if !reflect.DeepEqual(serial, par) {
						t.Fatalf("seed=%d graph=%s adv=%s workload=%s: parallel Result differs from serial\nserial:   %+v\nparallel: %+v",
							seed, tg.name, adv.Name(), wl.name, summarize(serial), summarize(par))
					}
					if len(serial.Trace) == 0 || serial.Msgs == 0 {
						t.Fatalf("seed=%d graph=%s adv=%s workload=%s: degenerate run (msgs=%d trace=%d)",
							seed, tg.name, adv.Name(), wl.name, serial.Msgs, len(serial.Trace))
					}
				}
			}
		}
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

// TestBoundedLagWorkerSweep pins determinism across pool sizes, including
// the degenerate one-worker pool (pure staging, no goroutines).
func TestBoundedLagWorkerSweep(t *testing.T) {
	g := graph.RandomConnected(50, 120, 9)
	mk := func() func(graph.NodeID) Handler {
		return func(graph.NodeID) Handler { return &multiFlood{k: 3} }
	}
	adv := Skew{Cut: 25, FastD: 1.0 / 32}
	want := New(g, adv, mk()).WithMode(ModeSingle).KeepTrace().Run()
	for _, w := range []int{1, 2, 3, 8, 16} {
		got := New(g, adv, mk()).WithMode(ModeMulti).
			WithWorkers(w).WithMinParallel(1).KeepTrace().Run()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: Result differs from serial", w)
		}
	}
}

// TestBoundedLagAutoMode smoke-checks ModeAuto: whatever it picks must
// reproduce the serial Result bit-for-bit.
func TestBoundedLagAutoMode(t *testing.T) {
	g := graph.RandomConnected(80, 2100, 5)
	mk := func() func(graph.NodeID) Handler {
		return func(graph.NodeID) Handler { return &floodHandler{} }
	}
	want := New(g, Fixed{D: 1}, mk()).WithMode(ModeSingle).Run()
	got := New(g, Fixed{D: 1}, mk()).WithMode(ModeAuto).Run()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("ModeAuto Result differs from serial")
	}
}

// TestAutoTinyLookaheadRunsSerial: with CPUs available and a graph past
// AutoMultiLinks, a tiny-lookahead adversary (SeededRandom's 2^-20) must
// keep ModeAuto on the serial loop — no worker contexts are ever built —
// and still match serial.
func TestAutoTinyLookaheadRunsSerial(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	g := graph.RandomConnected(80, 2100, 5) // 4200 directed links >= AutoMultiLinks
	mk := func(graph.NodeID) Handler { return &floodHandler{} }
	adv := SeededRandom{Seed: 3}
	want := New(g, adv, mk).WithMode(ModeSingle).Run()
	sim := New(g, adv, mk).WithMode(ModeAuto)
	if got := sim.Run(); !reflect.DeepEqual(want, got) {
		t.Fatal("ModeAuto Result differs from serial")
	}
	if len(sim.wctx) != 0 {
		t.Fatalf("ModeAuto built %d worker contexts under a 2^-20 lookahead; want the serial loop", len(sim.wctx))
	}
}

// TestMinDelayContract samples every shipped adversary across endpoints,
// sequence numbers, and protos, asserting no Delay ever undercuts the
// declared MinDelay (the bounded-lag mode's safety condition) or leaves
// the model's (0,1] range.
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

// TestResetReuse runs one engine through three Reset cycles — across
// adversaries and execution modes — and requires every rerun to reproduce
// the fresh-engine Result exactly.
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
	// A parallel run after a serial Reset cycle must still match.
	want := New(g, Fixed{D: 1}, mk).Run()
	reused.Reset(Fixed{D: 1}, mk)
	reused.WithMode(ModeMulti).WithWorkers(3).WithMinParallel(1)
	if got := reused.Run(); !reflect.DeepEqual(want, got) {
		t.Fatal("reused engine in ModeMulti differs from fresh serial engine")
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

// slowAck lies about its lookahead: MinDelay claims 0.5 but acks travel at
// 0.1. The engine must refuse the delay in every mode rather than produce
// an unsound window.
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
	for _, mode := range []ExecutionMode{ModeSingle, ModeMulti} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("mode %s: undercutting MinDelay should panic", mode)
				}
			}()
			New(graph.Path(2), lyingAdversary{}, func(graph.NodeID) Handler {
				return &floodHandler{}
			}).WithMode(mode).WithMinParallel(1).Run()
		}()
	}
}

// panicAt floods normally but panics when a chosen node first receives —
// mid-window in ModeMulti, with staged effects in flight.
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

// TestResetAfterMidWindowPanic pins the recoverable-panic contract the
// doubling harness relies on: after a ModeMulti run dies mid-window, Reset
// must clear the workers' staged events, counters, and recorded panic so
// the rearmed engine reproduces a fresh engine's Result exactly.
func TestResetAfterMidWindowPanic(t *testing.T) {
	g := graph.RandomConnected(40, 100, 7)
	mkBoom := func(graph.NodeID) Handler { return &panicAt{trigger: 20} }
	mk := func(graph.NodeID) Handler { return &floodHandler{} }
	want := New(g, Fixed{D: 1}, mk).Run()

	s := New(g, Fixed{D: 1}, mkBoom).WithMode(ModeMulti).WithWorkers(4).WithMinParallel(1)
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
		t.Fatalf("rearmed engine after mid-window panic differs from fresh engine:\n%+v\nvs\n%+v", want, got)
	}
}

// statsProbe calls Sim.Stats from inside a handler callback and records
// whether the mid-window guard fired, then floods normally so the run
// terminates. The flag is atomic: in ModeMulti many workers' probes fire
// concurrently.
type statsProbe struct {
	floodHandler
	sim      **Sim
	panicked *atomic.Bool
}

func (h *statsProbe) Recv(n *Node, from graph.NodeID, m Msg) {
	func() {
		defer func() {
			if recover() != nil {
				h.panicked.Store(true)
			}
		}()
		(*h.sim).Stats()
	}()
	h.floodHandler.Recv(n, from, m)
}

// TestStatsMidWindowGuard: Stats called while a parallel window is in
// flight must panic instead of returning counters that are stale by an
// unknowable amount; in ModeSingle the same call is a well-defined
// snapshot and must not panic.
func TestStatsMidWindowGuard(t *testing.T) {
	g := graph.Grid(6, 6)
	for _, mode := range []ExecutionMode{ModeSingle, ModeMulti} {
		var sim *Sim
		var panicked atomic.Bool
		mk := func(graph.NodeID) Handler { return &statsProbe{sim: &sim, panicked: &panicked} }
		sim = New(g, Fixed{D: 1}, mk).WithMode(mode).WithWorkers(2).WithMinParallel(1)
		sim.Run()
		if mode == ModeSingle && panicked.Load() {
			t.Fatal("ModeSingle: mid-run Stats should be a valid snapshot, not a panic")
		}
		if mode != ModeSingle && !panicked.Load() {
			t.Fatalf("%s: Stats inside an in-flight window should panic", mode)
		}
	}
}

// TestAutoPolicyWheelDrift pins the shared policy constant to the calendar
// wheel's resolution — the two must move together or Auto's window
// heuristic stops meaning "one wheel tick".
func TestAutoPolicyWheelDrift(t *testing.T) {
	if execpolicy.AutoMinLookahead != 1.0/cqBuckets {
		t.Fatalf("execpolicy.AutoMinLookahead = %g, wheel tick = %g",
			execpolicy.AutoMinLookahead, 1.0/cqBuckets)
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

// FuzzBoundedLagDelays injects fuzzer-chosen delay patterns and asserts
// the bounded-lag executor, with a 3-worker pool that fans out on every
// window, reproduces the serial Result byte-for-byte. A MinDelay of 1/16
// makes the windows wide enough to hold many events across shards, so the
// fuzzer chooses how they interleave.
func FuzzBoundedLagDelays(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{255, 0})
	f.Add([]byte{3, 200, 17, 90, 255, 1, 128})
	f.Add([]byte("window interleavings"))
	g := graph.RandomConnected(24, 50, 11)
	f.Fuzz(func(t *testing.T, data []byte) {
		adv := fuzzDelays{data: data, lo: 1.0 / 16}
		mk := func(graph.NodeID) Handler { return &multiFlood{k: 2} }
		serial := New(g, adv, mk).WithMode(ModeSingle).KeepTrace().Run()
		multi := New(g, adv, mk).WithMode(ModeMulti).
			WithWorkers(3).WithMinParallel(1).KeepTrace().Run()
		if !reflect.DeepEqual(serial, multi) {
			t.Fatalf("bounded-lag Result differs from serial under fuzzed delays %v", data)
		}
	})
}
