package async

// outbox holds the messages a node has queued on one directed link but not
// yet injected (the ack discipline allows one in-flight message per link).
// Scheduling follows the paper's two composition rules:
//
//   - Stage priority (Lemma 2.5): a message of a lower stage is always
//     injected before any message of a higher stage.
//   - Round-robin across protocols within a stage (Lemma 2.2 / Cor 2.3):
//     the link cycles fairly through the protocols that have pending
//     messages, simulating "one copy of the edge per subroutine" with a
//     k-factor slowdown for k contending subroutines.
//
// Outboxes are allocated lazily, one per CONTENDED directed link: the
// simulator's []*outbox slot stays nil until a send finds the link busy
// (see execCtx.send's uncontended fast path), so a ten-million-link flood
// whose links never queue two messages costs one pointer per link, not a
// queue structure. The in-flight flag itself lives in the engine's dense
// []bool. The internal queues are plain slices — protocols per stage are
// few (the synchronizer stack registers tens at most), so linear scans
// beat hashing.
//
// Reuse rules: Msg values are pointer-free (a body's segment is an arena
// offset), so popped message slots are left as they are, and drained
// stageQueue and protoFIFO slots are only truncated, never dropped — their
// slice capacity rotates back into use when the stage or protocol
// reappears on the link. A link that reaches steady state therefore stops
// allocating entirely, even when its outbox fully drains between messages
// (the common, uncontended case).
type outbox struct {
	queued int
	stages []stageQueue // sorted ascending by stage
}

type stageQueue struct {
	stage  int
	queued int
	protos []protoFIFO // rotation order (first-appearance order)
	next   int         // round-robin cursor into protos
}

// protoFIFO is one protocol's pending-message queue on one link: a slice
// ring that compacts to msgs[:0] whenever it drains, reusing capacity.
type protoFIFO struct {
	proto Proto
	head  int
	msgs  []Msg
}

func (o *outbox) push(m Msg) {
	o.queued++
	// Find or insert the stage queue, keeping stages sorted.
	lo, hi := 0, len(o.stages)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.stages[mid].stage < m.Stage {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(o.stages) || o.stages[lo].stage != m.Stage {
		// Grow by one, then rotate the tail slot — whose protoFIFO capacity
		// survives from a previously drained stage — into position lo.
		n := len(o.stages)
		if n < cap(o.stages) {
			o.stages = o.stages[:n+1]
		} else {
			o.stages = append(o.stages, stageQueue{})
		}
		tail := o.stages[n]
		copy(o.stages[lo+1:], o.stages[lo:n])
		tail.stage = m.Stage
		o.stages[lo] = tail
	}
	sq := &o.stages[lo]
	sq.queued++
	for i := range sq.protos {
		if sq.protos[i].proto == m.Proto {
			sq.protos[i].msgs = append(sq.protos[i].msgs, m)
			return
		}
	}
	// Grow the rotation by one, reusing a drained protoFIFO's msgs capacity
	// when the slice has room beyond its length.
	n := len(sq.protos)
	if n < cap(sq.protos) {
		sq.protos = sq.protos[:n+1]
	} else {
		sq.protos = append(sq.protos, protoFIFO{})
	}
	pf := &sq.protos[n]
	pf.proto = m.Proto
	pf.msgs = append(pf.msgs, m)
}

// pop removes and returns the next message per the scheduling discipline.
// The second return is false when the outbox is empty.
func (o *outbox) pop() (Msg, bool) {
	if o.queued == 0 {
		// Retire any lingering drained stages so long-lived links do not
		// accumulate stale rotation state (capacity is kept for reuse).
		for len(o.stages) > 0 {
			o.removeFrontStage()
		}
		return Msg{}, false
	}
	// Stages are sorted ascending and drained stages are removed, so the
	// front stage always holds the next message.
	for o.stages[0].queued == 0 {
		o.removeFrontStage()
	}
	sq := &o.stages[0]
	m := sq.pop()
	o.queued--
	if sq.queued == 0 {
		o.removeFrontStage()
	}
	return m, true
}

// reset empties the outbox in place for engine reuse (Sim.Reset), keeping
// the stage rotation's and every protoFIFO's capacity. Msg slots are
// pointer-free values, so the retained arrays pin nothing.
func (o *outbox) reset() {
	o.queued = 0
	for i := range o.stages {
		sq := &o.stages[i]
		sq.stage = 0
		sq.queued = 0
		sq.next = 0
		for j := range sq.protos {
			sq.protos[j].head = 0
			sq.protos[j].msgs = sq.protos[j].msgs[:0]
		}
		sq.protos = sq.protos[:0]
	}
	o.stages = o.stages[:0]
}

// removeFrontStage retires the drained front stage, rotating its slot —
// scalars reset, protoFIFO capacity intact (each FIFO already reset itself
// when it drained) — past the slice's length for later reuse.
func (o *outbox) removeFrontStage() {
	front := o.stages[0]
	copy(o.stages, o.stages[1:])
	front.stage = 0
	front.queued = 0
	front.next = 0
	front.protos = front.protos[:0]
	o.stages[len(o.stages)-1] = front
	o.stages = o.stages[:len(o.stages)-1]
}

// pop returns the next message of a non-empty stage, round-robining across
// its protocols.
func (sq *stageQueue) pop() Msg {
	n := len(sq.protos)
	for i := 0; i < n; i++ {
		pf := &sq.protos[(sq.next+i)%n]
		if pf.head == len(pf.msgs) {
			continue
		}
		m := pf.msgs[pf.head]
		pf.head++
		if pf.head == len(pf.msgs) {
			pf.head = 0
			pf.msgs = pf.msgs[:0]
		}
		sq.next = (sq.next + i + 1) % n
		sq.queued--
		return m
	}
	panic("async: stageQueue.pop on empty stage")
}
