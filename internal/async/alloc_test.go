package async

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// allocPing sends its R messages to its first neighbor, one at a time
// (each next send triggered by the previous ack), so the marginal cost
// between two run lengths is purely the per-message hot path: send,
// outbox, event push/pop, deliver, ack. Sends rotate across three protocol
// tags so the dense per-proto counters are exercised on every message —
// the counter slice must grow once per proto and never again.
type allocPing struct {
	remaining int
}

func (h *allocPing) proto() Proto { return Proto(1 + h.remaining%3) }

// ping sends the next message and reports whether one remained.
func (h *allocPing) ping(n *Node) bool {
	if h.remaining == 0 {
		return false
	}
	h.remaining--
	n.Send(n.Neighbors()[0].Node, Msg{Proto: h.proto(), Body: wire.Body{Kind: 1, A: int64(h.remaining)}})
	return true
}

func (h *allocPing) Init(n *Node) { h.ping(n) }

func (h *allocPing) Recv(*Node, graph.NodeID, Msg) {}

func (h *allocPing) Ack(n *Node, _ graph.NodeID, _ Msg) {
	if !h.ping(n) {
		n.Output(true)
	}
}

// pingHandlers gives the first `senders` nodes msgs/senders pings each;
// the rest only receive.
func pingHandlers(senders, msgs int) func(graph.NodeID) Handler {
	return func(id graph.NodeID) Handler {
		if int(id) >= senders {
			return &allocPing{}
		}
		return &allocPing{remaining: msgs / senders}
	}
}

// allocPinCase is one steady-state allocation workload. One sender on a
// path keeps one event pending; every node of a cycle pinging at once
// keeps several pending, so calendar-queue slots hold several keys and the
// event slab recycles popped indices through its free list. Under
// Fixed{D:1} every event lands one unit out and every slot stays a FIFO;
// random delays also drive slots onto the heap path.
type allocPinCase struct {
	name    string
	g       *graph.Graph
	senders int
	adv     Adversary
}

var (
	pingPathFixed   = allocPinCase{"path2-fixed", graph.Path(2), 1, Fixed{D: 1}}
	pingCycleFixed  = allocPinCase{"cycle8-fixed", graph.Cycle(8), 8, Fixed{D: 1}}
	pingCycleRandom = allocPinCase{"cycle8-random", graph.Cycle(8), 8, SeededRandom{Seed: 1}}
)

// allocPinRuns is the two run lengths whose allocation difference is the
// steady-state cost of the extra messages.
const allocPinShort, allocPinLong = 400, 4400

// TestZeroSteadyStateAllocsPerMessage is the regression test for the typed
// message plane: once the per-run structures are warm, delivering a
// message must not allocate. It measures whole-run allocations at two run
// lengths on the same topology — construction costs cancel, so the
// difference is the steady-state cost of the extra messages. With boxed
// `any` bodies this difference was ~1 alloc per message; with wire.Body it
// must be (close to) zero. The workload rotates protocol tags, so the
// dense per-proto counter slice (the map it replaced cost a hash per send)
// is pinned to zero steady-state allocations too. A small absolute slack
// absorbs runtime noise. Random delays are pinned by the Reset variant
// only: a fresh engine's wheel slots grow to their peak occupancy, which
// keeps rising (slowly) with run length when delays are random.
func TestZeroSteadyStateAllocsPerMessage(t *testing.T) {
	for _, c := range []allocPinCase{pingPathFixed, pingCycleFixed} {
		t.Run(c.name, func(t *testing.T) {
			run := func(msgs int) func() {
				return func() {
					res := New(c.g, c.adv, pingHandlers(c.senders, msgs)).Run()
					if res.Msgs != uint64(msgs) {
						t.Fatalf("sent %d messages, want %d", res.Msgs, msgs)
					}
					if len(res.PerProto) != 3 {
						t.Fatalf("per-proto breakdown %v, want 3 protos", res.PerProto)
					}
				}
			}
			a1 := testing.AllocsPerRun(5, run(allocPinShort))
			a2 := testing.AllocsPerRun(5, run(allocPinLong))
			const slack = 8
			if extra := a2 - a1; extra > slack {
				t.Fatalf("the %d extra messages allocated %.1f times (%.4f allocs/msg); want 0",
					allocPinLong-allocPinShort, extra, extra/float64(allocPinLong-allocPinShort))
			}
		})
	}
}

// TestZeroSteadyStateAllocsReset is the engine-reuse analogue: after the
// first Run warms every structure, a Reset/Run cycle's allocations must
// not scale with the message count — the wheel, event slab, outboxes,
// counters, and arena all retain their capacity across Reset. (Each cycle
// still pays O(1) allocs plus the handler remakes; the per-message cost is
// pinned.)
func TestZeroSteadyStateAllocsReset(t *testing.T) {
	for _, c := range []allocPinCase{pingPathFixed, pingCycleFixed, pingCycleRandom} {
		t.Run(c.name, func(t *testing.T) {
			cycle := func(msgs int) func() {
				mk := pingHandlers(c.senders, msgs)
				s := New(c.g, c.adv, mk)
				s.Run()
				return func() {
					s.Reset(c.adv, mk)
					if res := s.Run(); res.Msgs != uint64(msgs) {
						t.Fatalf("sent %d messages, want %d", res.Msgs, msgs)
					}
				}
			}
			a1 := testing.AllocsPerRun(5, cycle(allocPinShort))
			a2 := testing.AllocsPerRun(5, cycle(allocPinLong))
			const slack = 8
			if extra := a2 - a1; extra > slack {
				t.Fatalf("the %d extra messages allocated %.1f times across Reset (%.4f allocs/msg); want 0",
					allocPinLong-allocPinShort, extra, extra/float64(allocPinLong-allocPinShort))
			}
		})
	}
}
