package async

// eventQueue is a bucketed calendar queue specialized for this simulator:
// all delays lie in (0,1], so every pending event's timestamp is within one
// normalized time unit of the clock. The unit is split into cqBuckets
// ticks; a rotating wheel of cqBuckets slots holds the events of the next
// full unit, one tick per slot, each slot ordered by (t, seq). Events at or
// beyond the wheel horizon — every delay-1 event pushed at a tick
// boundary, as under Fixed{D:1}, and events of adversaries that violate
// the (0,1] contract before the simulator's own validation fires — go to
// one more slot, the overflow, and migrate onto the wheel as the clock
// advances, so the queue degrades to the classic binary heap instead of
// breaking.
//
// Keys and payloads are split. An event is 96 bytes (64 of them the Msg);
// it is copied once into the queue's slab on push and once out on pop, and
// stays put in between. The slots order only 24-byte evKeys that name the
// event's slab index, so sifting moves a quarter of the bytes a by-value
// event heap would.
//
// Each slot is a sorted run until proven otherwise. Under a fixed delay
// every event in a slot shares one t and arrives in seq order; such a slot
// is a FIFO — append at the tail, pop at the head, O(1). The first
// out-of-order push turns the pending run into a binary min-heap in place
// (a sorted array already is one), and the slot reverts to FIFO mode once
// it drains.
//
// Hand-rolled heaps matter here: container/heap's interface signature
// boxes every pushed element into an `any`, one allocation per event. The
// slab, its free list and the slot arrays allocate only on growth, which
// reuse amortizes away.
//
// Pop order is exactly (t, seq): tick(t) is a monotone function of t,
// slots are drained in tick order, and each slot yields its keys in
// (t, seq) order in either mode.
type eventQueue struct {
	wheel    [cqBuckets]cqSlot
	overflow cqSlot  // the events beyond the wheel horizon
	events   []event // slab: the payload of key k is events[k.idx]
	free     []int32 // slab indices of popped events, reused LIFO
	size     int
	onWheel  int
	cur      int64 // current tick; all queued events have tick >= cur
}

// evKey orders one queued event; idx locates its payload in the slab.
type evKey struct {
	t   float64
	seq uint64
	idx int32
}

// cqSlot holds one tick's keys. In FIFO mode keys[head:] is sorted by
// (t, seq); in heap mode head is 0 and keys is a binary min-heap. An empty
// slot has no keys, head 0, and is in FIFO mode.
type cqSlot struct {
	keys []evKey
	head int32
	heap bool
}

// cqBuckets is the wheel resolution (a power of two so the slot index is a
// mask). 256 slots over the unit delay range keeps slots near-singleton
// for diffuse adversaries while costing 8KB of slot headers.
const cqBuckets = 256

func cqTick(t float64) int64 { return int64(t * cqBuckets) }

// push copies *ev into the slab and queues its key.
func (q *eventQueue) push(ev *event) {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
		q.events[idx] = *ev
	} else {
		idx = int32(len(q.events))
		q.events = append(q.events, *ev)
	}
	q.size++
	q.pushKey(evKey{t: ev.t, seq: ev.seq, idx: idx})
}

// pushKey files a key on the wheel, or in the overflow beyond the horizon.
func (q *eventQueue) pushKey(k evKey) {
	tick := cqTick(k.t)
	if tick < q.cur {
		// Floating-point underflow of tick vs. the clock's own tick; the
		// event still pops in (t,seq) order from the current slot.
		tick = q.cur
	}
	if tick >= q.cur+cqBuckets {
		q.overflow.push(k)
		return
	}
	q.onWheel++
	q.wheel[tick&(cqBuckets-1)].push(k)
}

func (q *eventQueue) empty() bool { return q.size == 0 }

// pop removes the earliest event by (t, seq) and copies it into *ev.
func (q *eventQueue) pop(ev *event) {
	if !q.popBefore(maxEventTime, ev) {
		panic("async: pop from empty event queue")
	}
}

// maxEventTime (2^64) exceeds every reachable event timestamp — the event
// cap bounds runs to ~2^34 time units — so popBefore(maxEventTime) never
// refuses a queued event.
const maxEventTime = float64(1<<63) * 2

// advance moves the clock to the next non-empty slot. The caller must hold
// size > 0. It returns the slot, which is non-empty.
func (q *eventQueue) advance() *cqSlot {
	for {
		slot := &q.wheel[q.cur&(cqBuckets-1)]
		if len(slot.keys) > 0 {
			return slot
		}
		if q.onWheel == 0 {
			// Nothing on the wheel: jump straight to the first overflow tick.
			q.cur = cqTick(q.overflow.min().t)
		} else {
			q.cur++
		}
		// Overflow events that entered the horizon move onto the wheel.
		for len(q.overflow.keys) > 0 && cqTick(q.overflow.min().t) < q.cur+cqBuckets {
			q.pushKey(q.overflow.pop())
		}
	}
}

// popBefore removes the earliest event by (t, seq) and copies it into *ev
// if its timestamp is strictly below limit; otherwise it leaves the queue
// intact and reports false. ShardRunWindow drains its shard's window
// [wStart, wStart+lookahead) with it.
//
// The earliest event is always in the first non-empty slot at or after cur:
// tick(t) is monotone in t, slots hold only events of their own tick (or
// events clamped INTO the then-current slot, which are even earlier), and
// every overflow event's timestamp lies beyond the whole wheel horizon.
func (q *eventQueue) popBefore(limit float64, ev *event) bool {
	if q.size == 0 {
		return false
	}
	slot := q.advance()
	if slot.min().t >= limit {
		return false
	}
	q.size--
	q.onWheel--
	idx := slot.pop().idx
	*ev = q.events[idx]
	q.free = append(q.free, idx)
	return true
}

// minT reports the earliest queued timestamp without removing the event.
// It advances the clock past empty slots exactly as popBefore would, so a
// minT/popBefore pair per window does the slot walk only once.
func (q *eventQueue) minT() (float64, bool) {
	if q.size == 0 {
		return 0, false
	}
	return q.advance().min().t, true
}

// reset empties the queue in place, keeping the slab's, the free list's
// and every slot's capacity for the next run. Events are pointer-free
// values, so the retained arrays pin nothing.
func (q *eventQueue) reset() {
	for i := range q.wheel {
		q.wheel[i].reset()
	}
	q.overflow.reset()
	q.events = q.events[:0]
	q.free = q.free[:0]
	q.size = 0
	q.onWheel = 0
	q.cur = 0
}

// forEach visits every queued event (snapshot serialization), slot by slot
// in wheel order and then the overflow, each in array order. The visit
// order is thus a deterministic function of the queue's history; restore
// re-pushes, and pop order depends only on the events' own (t, seq) keys,
// not on insertion order.
func (q *eventQueue) forEach(fn func(*event)) {
	visit := func(sl *cqSlot) {
		for _, k := range sl.keys[sl.head:] {
			fn(&q.events[k.idx])
		}
	}
	for i := range q.wheel {
		visit(&q.wheel[i])
	}
	visit(&q.overflow)
}

// min returns the slot's earliest key; the slot must be non-empty. Heap
// mode keeps head at 0, so keys[head] is the minimum in either mode.
func (sl *cqSlot) min() *evKey { return &sl.keys[sl.head] }

func (sl *cqSlot) push(k evKey) {
	if !sl.heap {
		n := len(sl.keys)
		if n == 0 || !evLess(&k, &sl.keys[n-1]) {
			if n == cap(sl.keys) && int(sl.head) >= n/2 {
				// A slot drained and refilled at once: reclaim the popped
				// prefix instead of regrowing. Requiring half the array
				// popped keeps the copying amortized O(1) per push.
				sl.compact()
			}
			sl.keys = append(sl.keys, k)
			return
		}
		// Out of order: the pending sorted run is already a valid min-heap.
		sl.compact()
		sl.heap = true
	}
	keyHeapPush(&sl.keys, k)
}

// pop removes the slot's earliest key; the slot must be non-empty.
func (sl *cqSlot) pop() evKey {
	if sl.heap {
		k := keyHeapPop(&sl.keys)
		if len(sl.keys) == 0 {
			sl.heap = false
		}
		return k
	}
	k := sl.keys[sl.head]
	sl.head++
	if int(sl.head) == len(sl.keys) {
		sl.keys = sl.keys[:0]
		sl.head = 0
	}
	return k
}

func (sl *cqSlot) reset() { *sl = cqSlot{keys: sl.keys[:0]} }

// compact moves the pending keys down to index 0.
func (sl *cqSlot) compact() {
	n := copy(sl.keys, sl.keys[sl.head:])
	sl.keys = sl.keys[:n]
	sl.head = 0
}

func evLess(a, b *evKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// keyHeapPush and keyHeapPop sift a hole rather than swapping, so each
// level moves one key.
func keyHeapPush(h *[]evKey, k evKey) {
	s := append(*h, k)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(&k, &s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = k
	*h = s
}

func keyHeapPop(h *[]evKey) evKey {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && evLess(&s[r], &s[c]) {
			c = r
		}
		if !evLess(&s[c], &last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}
