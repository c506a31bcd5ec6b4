package async

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// segSpray is the fault-plane segment workload: node 0 sprays a
// segment-carrying message at every neighbor and each node re-sprays
// once on first receipt. Every receipt folds the incoming segment's
// words into a commutative checksum published as the node's output, so
// the outputs cover segment *contents*. Dropped attempts and
// exhausted budgets must release every segment exactly once — the
// matrix and fuzz tests below assert a zero arena Live count after
// quiescence.
type segSpray struct {
	NopAck
	sent bool
	sum  int64
}

func (h *segSpray) spray(n *Node) {
	h.sent = true
	for _, nb := range n.Neighbors() {
		seg, view := n.Arena().Alloc(4)
		for i := range view {
			view[i] = int32(int(n.ID()) + i)
		}
		n.Send(nb.Node, Msg{Proto: 7, Body: wire.Body{Kind: 2, A: int64(n.ID()), Seg: seg}})
	}
}

func (h *segSpray) Init(n *Node) {
	if n.ID() == 0 {
		h.spray(n)
	}
}

func (h *segSpray) Recv(n *Node, from graph.NodeID, m Msg) {
	for _, w := range n.Arena().Data(m.Body.Seg) {
		h.sum += int64(w) * (int64(from) + 3)
	}
	n.Output(h.sum)
	if !h.sent {
		h.spray(n)
	}
}

func TestFaultSpecParse(t *testing.T) {
	fs, err := ParseFaultSpec("crash:p=0.01,drop:p=0.05,budget=3,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if fs.CrashP != 0.01 || fs.DropP != 0.05 || fs.Budget != 3 || fs.Seed != 7 {
		t.Fatalf("parsed %+v", fs)
	}
	// String round-trips through the parser.
	back, err := ParseFaultSpec(fs.String())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *fs {
		t.Fatalf("round-trip %+v != %+v", back, fs)
	}
	for _, none := range []string{"", "none"} {
		if got, err := ParseFaultSpec(none); err != nil || got != nil {
			t.Fatalf("ParseFaultSpec(%q) = %v, %v", none, got, err)
		}
	}
	for _, bad := range []string{
		"crash:p=1.5", "drop:p=-1", "budget=999", "budget=x",
		"what", "backoff=2", "link:p=1",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Fatalf("ParseFaultSpec(%q) accepted", bad)
		}
	}
}

// TestFaultSchedulePurity: every fault decision is a pure function of its
// arguments — the determinism bedrock the cross-process guarantees rest
// on.
func TestFaultSchedulePurity(t *testing.T) {
	fs := &FaultSchedule{Seed: 9, CrashP: 0.1, DropP: 0.2, LinkP: 0.05, Budget: 3}
	for i := 0; i < 50; i++ {
		v := graph.NodeID(i % 7)
		w := graph.NodeID((i + 3) % 7)
		e := uint64(i)
		if fs.CrashedEpoch(v, e) != fs.CrashedEpoch(v, e) {
			t.Fatal("CrashedEpoch not pure")
		}
		if fs.LinkDownEpoch(v, w, e) != fs.LinkDownEpoch(w, v, e) {
			t.Fatal("LinkDownEpoch not symmetric in the endpoint pair")
		}
		if fs.Drop(v, w, uint64(i)) != fs.Drop(v, w, uint64(i)) {
			t.Fatal("Drop not pure")
		}
	}
	// CrashedSet is ascending and matches CrashedEpoch.
	set := fs.CrashedSet(200, 4)
	for i, v := range set {
		if i > 0 && set[i-1] >= v {
			t.Fatal("CrashedSet not ascending")
		}
		if !fs.CrashedEpoch(v, 4) {
			t.Fatalf("CrashedSet includes non-crashed %d", v)
		}
	}
	// Backoff honors the shard window safety condition: never below
	// the adversary lookahead, never above the model's unit delay.
	for attempt := uint8(0); attempt < 10; attempt++ {
		for _, la := range []float64{1.0 / 1024, 0.25, 1} {
			b := fs.backoff(attempt, la)
			if b < la || b > 1 {
				t.Fatalf("backoff(%d, %g) = %g outside [lookahead, 1]", attempt, la, b)
			}
		}
	}
}

// TestFaultMatrixModes runs the full fault-schedule matrix across graphs,
// seeds and workloads (a contended multi-proto flood and a
// segment-carrying spray): every run must release every segment, account
// each drop as a retransmission or an abandonment, and record one trace
// entry per abandonment. Between them the matrix must exercise both fates.
func TestFaultMatrixModes(t *testing.T) {
	anyDropped := false
	anyUndeliv := false
	for _, seed := range []uint64{3, 17} {
		graphs := matrixGraphs(seed)[:4]
		for _, fs := range StandardFaultSchedules(seed) {
			for _, tg := range graphs {
				adv := WithFaults(SeededRandom{Seed: seed}, fs)
				mkFlood := func(graph.NodeID) Handler { return &multiFlood{k: 3} }
				mkSeg := func(graph.NodeID) Handler { return &segSpray{} }
				for name, mk := range map[string]func(graph.NodeID) Handler{"multiflood": mkFlood, "segspray": mkSeg} {
					sim := New(tg.g, adv, mk).KeepTrace()
					want := sim.Run()
					if live := sim.Arena().Live(); live != 0 {
						t.Fatalf("seed=%d fs=%s graph=%s wl=%s: leaked %d segments",
							seed, fs, tg.name, name, live)
					}
					// Drops either retransmit or abandon — no third fate.
					if want.Dropped != want.Retrans+want.Undeliverable {
						t.Fatalf("dropped %d != retrans %d + undeliverable %d",
							want.Dropped, want.Retrans, want.Undeliverable)
					}
					nUndeliv := uint64(0)
					for _, te := range want.Trace {
						if te.Kind == TraceUndeliverable {
							nUndeliv++
						}
					}
					if nUndeliv != want.Undeliverable {
						t.Fatalf("trace has %d undeliverable entries, counter says %d",
							nUndeliv, want.Undeliverable)
					}
					anyDropped = anyDropped || want.Dropped > 0
					anyUndeliv = anyUndeliv || want.Undeliverable > 0
				}
			}
		}
	}
	if !anyDropped || !anyUndeliv {
		t.Fatalf("matrix never exercised the fault plane (dropped=%v undeliverable=%v)",
			anyDropped, anyUndeliv)
	}
}

// TestFaultFreeSchedulesMatchBaseline: wrapping an adversary in an inert
// schedule (or none) must not perturb a single byte of the run.
func TestFaultFreeSchedulesMatchBaseline(t *testing.T) {
	g := graph.Grid(6, 7)
	mk := func(graph.NodeID) Handler { return &multiFlood{k: 2} }
	adv := SeededRandom{Seed: 5}
	want := New(g, adv, mk).KeepTrace().Run()
	got := New(g, WithFaults(adv, &FaultSchedule{Seed: 1}), mk).KeepTrace().Run()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("inert fault schedule changed the run")
	}
	if got.Dropped != 0 || got.Retrans != 0 || got.Undeliverable != 0 {
		t.Fatalf("inert schedule reported faults: %+v", summarize(got))
	}
}

// TestFaultRetransDelivers: with a generous budget every dropped message
// is eventually delivered, so outputs match the fault-free run even
// though the delivery schedule (and therefore timings) differ.
func TestFaultRetransDelivers(t *testing.T) {
	g := graph.RandomConnected(40, 90, 13)
	mk := func(graph.NodeID) Handler { return &multiFlood{k: 2} }
	adv := SeededRandom{Seed: 11}
	clean := New(g, adv, mk).Run()
	fs := &FaultSchedule{Seed: 21, DropP: 0.3, Budget: 64}
	faulty := New(g, WithFaults(adv, fs), mk).Run()
	if faulty.Dropped == 0 || faulty.Retrans == 0 {
		t.Fatalf("drop schedule did not drop (dropped=%d)", faulty.Dropped)
	}
	if faulty.Undeliverable != 0 {
		t.Fatalf("budget 64 exhausted %d times at p=0.3", faulty.Undeliverable)
	}
	if !reflect.DeepEqual(clean.Outputs, faulty.Outputs) {
		t.Fatal("retransmission did not converge to the fault-free outputs")
	}
	if faulty.Time <= clean.Time {
		t.Fatalf("retransmissions cost no time: %g <= %g", faulty.Time, clean.Time)
	}
}

// TestFaultBudgetExhaustionQuiesces: a zero budget turns every drop into
// an Undeliverable abandonment — the run must quiesce (not hang) and the
// abandoned link must remain usable for later traffic.
func TestFaultBudgetExhaustionQuiesces(t *testing.T) {
	g := graph.RandomConnected(40, 90, 13)
	mk := func(graph.NodeID) Handler { return &segSpray{} }
	fs := &FaultSchedule{Seed: 5, DropP: 0.4, Budget: 0}
	s := New(g, WithFaults(SeededRandom{Seed: 11}, fs), mk).KeepTrace()
	res := s.Run()
	if res.Undeliverable == 0 {
		t.Fatal("budget 0 at p=0.4 abandoned nothing")
	}
	if res.Dropped != res.Undeliverable {
		t.Fatalf("budget 0 retransmitted: dropped=%d undeliverable=%d", res.Dropped, res.Undeliverable)
	}
	if live := s.Arena().Live(); live != 0 {
		t.Fatalf("abandonment leaked %d segments", live)
	}
}

// twoRate drives two ping chains at incommensurate periods: a slow chain
// on link 0–1 and a fast one on link 1–2.
type twoRate struct{}

func (twoRate) MinDelay() float64 { return 0.5 }
func (twoRate) Name() string      { return "tworate" }
func (twoRate) Delay(from, to graph.NodeID, _ uint64, _ Proto) float64 {
	if from == 0 || to == 0 {
		return 0.9 // slow chain on link 0–1
	}
	return 0.51 // fast chain on link 1–2
}

// pingChain: nodes 0 and 2 each drive `remaining` messages to node 1, one
// at a time (next send on ack), like allocPing but with two independent
// chains through different owner shards.
type pingChain struct {
	remaining int
}

func (h *pingChain) Init(n *Node) {
	if n.ID() == 0 || n.ID() == 2 {
		h.remaining--
		n.Send(1, Msg{Proto: Proto(1 + n.ID()), Body: wire.Body{Kind: 1, A: int64(h.remaining)}})
	}
}

func (h *pingChain) Recv(*Node, graph.NodeID, Msg) {}

func (h *pingChain) Ack(n *Node, to graph.NodeID, m Msg) {
	if h.remaining > 0 {
		h.remaining--
		n.Send(to, Msg{Proto: m.Proto, Body: wire.Body{Kind: 1, A: int64(h.remaining)}})
	} else if h.remaining == 0 {
		h.remaining--
		n.Output(true)
	}
}

// TestFaultSteadyStateAllocs is the drop/retransmit path's alloc pin:
// growing the message count across Reset cycles must not grow
// allocations, and every cycle must leave the arena empty — the
// exactly-once release pin for dropped-message segments.
func TestFaultSteadyStateAllocs(t *testing.T) {
	g := graph.Path(3)
	fs := &FaultSchedule{Seed: 31, DropP: 0.25, Budget: 64}
	adv := WithFaults(twoRate{}, fs)
	cycle := func(msgs int) func() {
		mk := func(graph.NodeID) Handler { return &pingChain{remaining: msgs} }
		s := New(g, adv, mk)
		res := s.Run()
		if res.Dropped == 0 || res.Retrans == 0 {
			t.Fatalf("workload did not exercise the drop path: %+v", summarize(res))
		}
		if res.Undeliverable != 0 {
			t.Fatalf("budget 64 exhausted %d times at p=0.25", res.Undeliverable)
		}
		return func() {
			s.Reset(adv, mk)
			if res := s.Run(); res.Msgs != uint64(2*msgs) {
				t.Fatalf("sent %d messages, want %d", res.Msgs, 2*msgs)
			}
			if live := s.Arena().Live(); live != 0 {
				t.Fatalf("cycle leaked %d segments", live)
			}
		}
	}
	const short, long = 200, 2200
	runShort := cycle(short)
	runLong := cycle(long)
	a1 := testing.AllocsPerRun(5, runShort)
	a2 := testing.AllocsPerRun(5, runLong)
	const slack = 8
	if extra := a2 - a1; extra > slack {
		t.Fatalf("the %d extra messages allocated %.1f times across Reset (%.4f allocs/msg); want 0",
			2*(long-short), extra, extra/float64(2*(long-short)))
	}
}

// FuzzFaultSchedule feeds fuzzer-chosen bytes into both the delay
// adversary and the fault schedule: the run must balance its fault ledger
// (every drop retransmitted or abandoned) and the arena must come back
// empty (dropped-message segments released exactly once).
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255, 128, 3, 9, 77})
	f.Add([]byte("fault tolerantly"))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	g := graph.RandomConnected(24, 50, 11)
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := &FaultSchedule{Seed: 1}
		for i, b := range data {
			fs.Seed = fs.Seed*131 + uint64(b)
			switch i % 4 {
			case 0:
				fs.DropP = float64(b) / 512 // up to ~0.5
			case 1:
				fs.CrashP = float64(b) / 1024
			case 2:
				fs.LinkP = float64(b) / 1024
			case 3:
				fs.Budget = int(b) % 5
			}
		}
		if err := fs.Validate(); err != nil {
			t.Fatalf("derived schedule invalid: %v", err)
		}
		adv := WithFaults(fuzzDelays{data: data, lo: 1.0 / (1 << 20)}, fs)
		mk := func(graph.NodeID) Handler { return &segSpray{} }
		sim := New(g, adv, mk)
		res := sim.Run()
		if res.Dropped != res.Retrans+res.Undeliverable {
			t.Fatalf("dropped %d != retrans %d + undeliverable %d under %v",
				res.Dropped, res.Retrans, res.Undeliverable, data)
		}
		if live := sim.Arena().Live(); live != 0 {
			t.Fatalf("leaked %d segments under %v", live, data)
		}
	})
}

// FuzzParseFaultSpec holds the -faults input boundary to "an error, or a
// schedule a short run accepts — never a panic". An accepted schedule must
// round-trip through String, and a run under it must quiesce with the
// fault ledger balanced (every lost attempt either retransmitted or
// abandoned) and every segment released.
func FuzzParseFaultSpec(f *testing.F) {
	for _, spec := range []string{
		"", "none", "crash:p=0.01,drop:p=0.05,budget=3,seed=7",
		"link:p=0.5,epoch=0.001", "drop:p=0.999,budget=16,backoff=1e-300",
		"crash:p=0.9,epoch=+Inf", "seed=0", "drop:p=-0", "budget=-1",
		"drop:p=NaN", "seed=18446744073709551616", "what", ",,", "drop:p=0x1p-3",
	} {
		f.Add(spec)
	}
	g := graph.RandomConnected(12, 20, 3)
	mk := func(graph.NodeID) Handler { return &segSpray{} }
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := ParseFaultSpec(spec)
		if err != nil {
			if fs != nil {
				t.Fatalf("ParseFaultSpec(%q) returned a schedule with error %v", spec, err)
			}
			return
		}
		if fs == nil {
			return // no fault plane
		}
		back, err := ParseFaultSpec(fs.String())
		if err != nil {
			t.Fatalf("String() of %q = %q does not parse: %v", spec, fs.String(), err)
		}
		if back == nil {
			back = &FaultSchedule{}
		}
		if *back != *fs {
			t.Fatalf("%q round-trips through %q to %+v, want %+v", spec, fs.String(), *back, *fs)
		}
		s := New(g, WithFaults(SeededRandom{Seed: 1}, fs), mk)
		res := s.Run()
		if res.Dropped != res.Retrans+res.Undeliverable {
			t.Fatalf("%q: dropped %d != retrans %d + undeliverable %d",
				spec, res.Dropped, res.Retrans, res.Undeliverable)
		}
		if live := s.Arena().Live(); live != 0 {
			t.Fatalf("%q: %d segments still live after quiescence", spec, live)
		}
	})
}

// TestFaultyAdversaryName: the combinator surfaces the schedule in the
// adversary name so experiment tables identify faulty rows.
func TestFaultyAdversaryName(t *testing.T) {
	fs := &FaultSchedule{Seed: 7, DropP: 0.05, Budget: 3}
	adv := WithFaults(Fixed{D: 1}, fs)
	if name := adv.Name(); !strings.Contains(name, "faults") || !strings.Contains(name, "drop:p=0.05") {
		t.Fatalf("Faulty name %q hides the schedule", name)
	}
	if adv.MinDelay() != (Fixed{D: 1}).MinDelay() {
		t.Fatal("Faulty changed MinDelay")
	}
}
