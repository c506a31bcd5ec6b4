package async

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// evBefore is the queue's (t, seq) order on whole events.
func evBefore(a, b *event) bool {
	return evLess(&evKey{t: a.t, seq: a.seq}, &evKey{t: b.t, seq: b.seq})
}

// heapSlots counts the slots (overflow included) currently in heap mode.
func (q *eventQueue) heapSlots() int {
	n := 0
	for i := range q.wheel {
		if q.wheel[i].heap {
			n++
		}
	}
	if q.overflow.heap {
		n++
	}
	return n
}

// queueDriver pushes and pops like the simulator — every push lands at
// now+d — and checks each pop against a (t, seq) sort of the pushes.
type queueDriver struct {
	t      *testing.T
	q      eventQueue
	seq    uint64
	now    float64
	pushed []event
	popped []event
}

func (d *queueDriver) push(delay float64) {
	ev := event{t: d.now + delay, seq: d.seq}
	d.seq++
	d.pushed = append(d.pushed, ev)
	d.q.push(&ev)
}

func (d *queueDriver) pop() {
	var ev event
	d.q.pop(&ev)
	if ev.t < d.now {
		d.t.Fatalf("time went backwards: %g after %g", ev.t, d.now)
	}
	d.now = ev.t
	d.popped = append(d.popped, ev)
}

// check drains the queue and compares the whole pop sequence with the
// (t, seq)-sorted push sequence.
func (d *queueDriver) check() {
	for !d.q.empty() {
		d.pop()
	}
	if len(d.popped) != len(d.pushed) {
		d.t.Fatalf("popped %d events, pushed %d", len(d.popped), len(d.pushed))
	}
	sort.Slice(d.pushed, func(i, j int) bool { return evBefore(&d.pushed[i], &d.pushed[j]) })
	for i := range d.pushed {
		if d.popped[i].seq != d.pushed[i].seq || d.popped[i].t != d.pushed[i].t {
			d.t.Fatalf("pop %d = {t:%g seq:%d}, want {t:%g seq:%d}",
				i, d.popped[i].t, d.popped[i].seq, d.pushed[i].t, d.pushed[i].seq)
		}
	}
}

// TestEventQueueOrder drives the calendar queue with pops interleaved with
// pushes at now+d, d in (0,1] like the simulator, and checks it yields
// exactly the (t, seq) order of a reference sort. The workloads cover both
// slot modes: random delays (slots switch modes at random), an equal-t
// burst that must stay on the FIFO path throughout (the Fixed{D:1} shape),
// and one slot forced from FIFO to heap mode and back.
func TestEventQueueOrder(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		d := &queueDriver{t: t}
		// Seed a burst, then run pop-then-maybe-push cycles.
		for i := 0; i < 50; i++ {
			d.push(rng.Float64()*0.999 + 0.001)
		}
		for !d.q.empty() {
			d.pop()
			if len(d.pushed) < 5000 {
				for k := rng.Intn(3); k > 0; k-- {
					switch rng.Intn(4) {
					case 0:
						d.push(1.0) // maximal delay: lands exactly one unit out
					case 1:
						d.push(1.0 / (1 << 16)) // near-instant
					default:
						d.push(rng.Float64()*0.999 + 0.001)
					}
				}
			}
		}
		d.check()
	})

	t.Run("equal-t-burst", func(t *testing.T) {
		// Every event is one unit out and pushed in seq order: each wave
		// of 300 shares one t, passes through the overflow, and pops FIFO.
		d := &queueDriver{t: t}
		for i := 0; i < 300; i++ {
			d.push(1.0)
		}
		for len(d.popped) < 3000 {
			d.pop()
			d.push(1.0)
			if n := d.q.heapSlots(); n != 0 {
				t.Fatalf("after %d pops: %d slots left FIFO mode on an in-order workload", len(d.popped), n)
			}
		}
		d.check()
	})

	t.Run("slot-mode-switch", func(t *testing.T) {
		// All timestamps share tick 10, so every push lands in one slot.
		const base = 10.0 / cqBuckets
		const step = 1.0 / (cqBuckets * 64)
		slot := &queueDriver{t: t}
		sl := &slot.q.wheel[10]
		at := func(i int) { slot.push(base + float64(i)*step) } // the clock is 0 until the first pop
		for _, i := range []int{1, 2, 4, 8} {
			at(i)
		}
		if sl.heap {
			t.Fatal("in-order pushes left FIFO mode")
		}
		at(3) // out of order: the run becomes a heap
		if !sl.heap {
			t.Fatal("an out-of-order push did not switch the slot to heap mode")
		}
		// Interleave pops with in-order and out-of-order pushes.
		slot.pop()
		slot.push(6 * step)
		slot.push(5 * step)
		slot.push(40 * step)
		for !slot.q.empty() {
			slot.pop()
		}
		if sl.heap || len(sl.keys) != 0 || sl.head != 0 {
			t.Fatalf("drained slot kept state: heap=%v len=%d head=%d", sl.heap, len(sl.keys), sl.head)
		}
		// Back in FIFO mode: an in-order refill, popped at the head while
		// more in-order pushes (one of them an equal-t tie) arrive.
		for i := 1; i <= 4; i++ {
			slot.push(float64(i) * step)
		}
		slot.pop()
		slot.pop()
		slot.push(2 * step)
		slot.push(3 * step)
		if sl.heap {
			t.Fatal("in-order pushes after draining left FIFO mode")
		}
		slot.check()
	})
}

// TestEventQueueSizes pins the sizes DESIGN.md quotes: the slab stores
// 96-byte events, the slots order 24-byte keys.
func TestEventQueueSizes(t *testing.T) {
	if ev, k := unsafe.Sizeof(event{}), unsafe.Sizeof(evKey{}); ev != 96 || k != 24 {
		t.Fatalf("event is %d B and evKey %d B, want 96 and 24", ev, k)
	}
}

// TestEventQueueOverflow exercises the fallback path for events beyond the
// one-unit wheel horizon (only reachable by adversaries that break the
// delay contract; the queue must still order correctly).
func TestEventQueueOverflow(t *testing.T) {
	var q eventQueue
	for i := 0; i < 200; i++ {
		q.push(&event{t: float64(i%17) * 1.7, seq: uint64(i)})
	}
	var last, ev event
	first := true
	for !q.empty() {
		q.pop(&ev)
		if !first && evBefore(&ev, &last) {
			t.Fatalf("out of order: {t:%g seq:%d} after {t:%g seq:%d}",
				ev.t, ev.seq, last.t, last.seq)
		}
		last, first = ev, false
	}
}

// BenchmarkEventQueuePushPop measures the queue's steady-state hold
// pattern, one push per pop, the simulator's dominant operation mix:
// "random" spreads delays over the unit interval, "equal-t" is the
// Fixed{D:1} shape (every event one unit out, FIFO slots only).
func BenchmarkEventQueuePushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	random := make([]float64, 1024)
	for i := range random {
		random[i] = rng.Float64()*0.999 + 0.001
	}
	for _, bc := range []struct {
		name  string
		delay func(i int) float64
	}{
		{"random", func(i int) float64 { return random[i&1023] }},
		{"equal-t", func(int) float64 { return 1 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var q eventQueue
			var ev event
			var seq uint64
			for i := 0; i < 512; i++ {
				q.push(&event{t: bc.delay(i), seq: seq})
				seq++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.pop(&ev)
				ev.t += bc.delay(i)
				ev.seq = seq
				q.push(&ev)
				seq++
			}
		})
	}
}

// TestEventQueuePopBefore drives the window-draining primitive against a
// reference sort: popBefore(limit) must yield exactly the events with
// t < limit, in (t, seq) order, and leave the rest poppable afterwards.
func TestEventQueuePopBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q eventQueue
	var all []event
	now := 0.0
	for i := 0; i < 400; i++ {
		ev := event{t: now + rng.Float64()*0.999 + 0.001, seq: uint64(i)}
		all = append(all, ev)
		q.push(&ev)
		if i%7 == 0 { // keep the clock moving like the simulator does
			now += 0.05
		}
	}
	sort.Slice(all, func(i, j int) bool { return evBefore(&all[i], &all[j]) })
	limit := all[len(all)/3].t // boundary event: t >= limit stays queued
	var before []event
	var ev event
	for q.popBefore(limit, &ev) {
		before = append(before, ev)
	}
	// minT on the remainder must report the first at-or-beyond-limit event.
	if mt, ok := q.minT(); !ok || mt < limit {
		t.Fatalf("minT after window = %g, want >= %g", mt, limit)
	}
	i := 0
	for ; i < len(all) && all[i].t < limit; i++ {
		if i >= len(before) || before[i].seq != all[i].seq {
			t.Fatalf("popBefore order diverges at %d", i)
		}
	}
	if i != len(before) {
		t.Fatalf("popBefore yielded %d events, want %d", len(before), i)
	}
	for ; i < len(all); i++ {
		q.pop(&ev)
		if ev.seq != all[i].seq || ev.t != all[i].t {
			t.Fatalf("post-window pop %d = {t:%g seq:%d}, want {t:%g seq:%d}",
				i, ev.t, ev.seq, all[i].t, all[i].seq)
		}
	}
	if !q.empty() {
		t.Fatal("queue not drained")
	}
}

// TestEventQueueReset verifies reset yields an empty, reusable queue whose
// retained capacity still orders correctly.
func TestEventQueueReset(t *testing.T) {
	var q eventQueue
	for i := 0; i < 300; i++ {
		q.push(&event{t: float64(i%13) * 0.07, seq: uint64(i)})
	}
	var ev event
	q.pop(&ev)
	q.reset()
	if !q.empty() {
		t.Fatal("queue not empty after reset")
	}
	if _, ok := q.minT(); ok {
		t.Fatal("minT reported an event after reset")
	}
	if len(q.events) != 0 || len(q.free) != 0 || q.heapSlots() != 0 {
		t.Fatalf("reset kept %d slab events, %d free indices, %d heap slots",
			len(q.events), len(q.free), q.heapSlots())
	}
	for i := 0; i < 100; i++ {
		q.push(&event{t: float64((i*31)%97) / 97, seq: uint64(i)})
	}
	last := -1.0
	for !q.empty() {
		q.pop(&ev)
		if ev.t < last {
			t.Fatalf("out of order after reset: %g after %g", ev.t, last)
		}
		last = ev.t
	}
}

// FuzzEventQueue interprets the input as a script of queue operations —
// pushes at now+d, pops, popBefore windows, minT probes and resets — and
// checks every answer against a reference model: the pending set sorted by
// (t, seq). Delays come from a small table (so values repeat and equal-t
// runs form) or straight from the input, including exact 1.0 and values
// near 2^-20, the smallest delay a bundled adversary declares.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 8, 8, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{3, 3, 3, 3, 1, 4, 3, 2, 1, 9, 9, 5, 1, 1, 0, 1})
	f.Add([]byte{6, 0x40, 0, 0, 0, 6, 0x3f, 0xff, 0, 0, 7, 0x20, 1, 1, 2, 0x80, 1})
	f.Add([]byte{0, 3, 2, 1, 0, 3, 2, 1, 8, 3, 3, 8, 1, 1, 1, 1, 1, 1, 1})
	table := []float64{1.0, 1.0 / (1 << 20), 1.0/(1<<20) + 1.0/(1<<40), 0.5, 1.0 / cqBuckets, 0.25, 1.0 - 1.0/(1<<52)}
	f.Fuzz(func(t *testing.T, script []byte) {
		var q eventQueue
		var pending []event // reference model, kept sorted by (t, seq)
		var seq uint64
		now := 0.0
		push := func(d float64) {
			ev := event{t: now + d, seq: seq}
			seq++
			q.push(&ev)
			i := sort.Search(len(pending), func(i int) bool { return evBefore(&ev, &pending[i]) })
			pending = append(pending, event{})
			copy(pending[i+1:], pending[i:])
			pending[i] = ev
		}
		expectPop := func(got event) {
			want := pending[0]
			pending = pending[1:]
			if got.t != want.t || got.seq != want.seq {
				t.Fatalf("pop = {t:%g seq:%d}, want {t:%g seq:%d}", got.t, got.seq, want.t, want.seq)
			}
			now = got.t
		}
		for i := 0; i < len(script); i++ {
			op := script[i]
			switch op % 10 {
			case 0, 3, 4, 5: // push a table delay; a run of these repeats values
				push(table[int(op/10)%len(table)])
			case 6: // push a delay from the next two bytes: (0,1], 2^-16 steps
				if i+2 < len(script) {
					u := binary.BigEndian.Uint16(script[i+1:])
					i += 2
					push(float64(uint32(u)+1) / (1 << 16))
				}
			case 7: // push a delay just above 2^-20
				if i+1 < len(script) {
					i++
					push(1.0/(1<<20) + float64(script[i])/(1<<40))
				}
			case 1: // pop
				if len(pending) == 0 {
					if !q.empty() {
						t.Fatalf("queue holds events the model does not")
					}
					continue
				}
				var ev event
				q.pop(&ev)
				expectPop(ev)
			case 2: // popBefore a limit a fraction of a unit past the clock
				limit := now
				if i+1 < len(script) {
					i++
					limit += float64(script[i]) / 128
				}
				var ev event
				ok := q.popBefore(limit, &ev)
				if want := len(pending) > 0 && pending[0].t < limit; ok != want {
					t.Fatalf("popBefore(%g) = %v, want %v", limit, ok, want)
				}
				if ok {
					expectPop(ev)
				}
			case 8: // minT
				mt, ok := q.minT()
				if ok != (len(pending) > 0) || (ok && mt != pending[0].t) {
					t.Fatalf("minT = %g, %v; model holds %d events", mt, ok, len(pending))
				}
			case 9: // reset: the queue and the clock start over
				q.reset()
				pending = pending[:0]
				now = 0
			}
		}
		for len(pending) > 0 {
			var ev event
			q.pop(&ev)
			expectPop(ev)
		}
		if !q.empty() {
			t.Fatal("queue not drained")
		}
	})
}
