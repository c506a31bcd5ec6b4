package async

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/wire"
)

// Engine state plane: versioned snapshot / restore of a Sim between
// events. A snapshot serializes the complete mutable engine state — the
// calendar queue, per-link busy/txSeq/outbox state, node outputs, fault
// and message counters, the delivery trace, and every handler's protocol
// state via its wire.StateCodec — into one pointer-free frame. Restoring
// the frame into an engine built over the same graph, adversary, and
// handler constructor reproduces the interrupted run exactly: the
// continuation's Results, outputs, and traces are byte-identical to the
// uninterrupted run, serial or sharded.
//
// The frame is relocatable: nodes are keyed by global id, links by their
// (from, to) endpoint pair, and events carry (src, dst) with the dense
// LinkID recomputed at restore against whatever graph view the restoring
// engine holds. A per-shard frame can therefore be split and re-merged
// across a different shard count (ResplitEngineFrames) — the basis of the
// shard coordinator's distributed snapshot.
//
// Arena segments never serialize as handles: a Body's segment words are
// inlined in the frame and re-carved from the restoring engine's arena, so
// the restored engine's segment lifecycle accounting (Live) matches the
// uninterrupted run's. Trace entries are the one exception — their bodies
// are record-only, never resolved again, so they keep handle images
// verbatim.

// Snapshot serializes the engine's complete state into a sealed frame.
// Legal on a quiescent engine, before Run, or between RunSteps calls —
// not in shard mode (the shard coordinator drives per-shard frames
// itself).
func (s *Sim) Snapshot() ([]byte, error) {
	if s.shardMode {
		return nil, fmt.Errorf("async: Snapshot on a shard engine (the coordinator snapshots at FLUSH barriers)")
	}
	e := wire.NewEnc(&s.arena)
	if err := s.encodeEngine(e); err != nil {
		return nil, err
	}
	return wire.SealSnapshot(e.Bytes()), nil
}

// Restore loads a Snapshot frame into this engine, which must have been
// built over the same graph, adversary, and handler constructor as the
// snapshotted one (validated against the frame header). Any existing run
// state is discarded first. After a successful restore the next Run (any
// or RunSteps continues the interrupted run; on error the engine is
// left reset and reusable, with no arena segments leaked.
func (s *Sim) Restore(data []byte) error {
	payload, err := wire.OpenSnapshot(data)
	if err != nil {
		return err
	}
	s.Reset(s.adv, s.mk)
	d := wire.NewDec(payload, &s.arena)
	if err := s.decodeEngine(d); err != nil {
		s.Reset(s.adv, s.mk) // releases everything the partial decode carved
		return err
	}
	return nil
}

// RunSteps processes up to n events serially, initializing handlers on the
// first call (unless the engine was restored from a snapshot). It reports
// whether the engine is quiescent — callers interleave Snapshot between
// calls to checkpoint at any event index, then FinishResult at the end.
// A restored engine may instead be continued with Run.
func (s *Sim) RunSteps(n uint64) bool {
	if s.g.Sub() {
		panic("async: RunSteps on a Subrange view; shard engines are driven by the internal/shard protocol")
	}
	if s.shardMode {
		panic("async: RunSteps on a shard engine")
	}
	if !s.running {
		s.running = true
		if !s.resumed {
			for i := range s.handlers {
				s.handlers[i].Init(&s.nodes[i])
			}
		}
	}
	var ev event
	for ; n > 0 && !s.events.empty(); n-- {
		s.events.pop(&ev)
		s.step(&ev)
	}
	return s.events.empty()
}

// FinishResult materializes the Result of a stepped run after RunSteps
// reached quiescence.
func (s *Sim) FinishResult() Result {
	if !s.events.empty() {
		panic("async: FinishResult before quiescence")
	}
	return s.result()
}

// ShardSnapshotFrame serializes a shard engine's state as one unsealed
// engine frame (the coordinator seals the assembled multi-shard file).
// Must be called at a FLUSH barrier after grants were applied: the staged
// log is empty then, so every pending event lives in exactly one shard's
// queue and the frame set is complete.
func (s *Sim) ShardSnapshotFrame(e *wire.Enc) error {
	if len(s.shardLog) != 0 {
		return fmt.Errorf("async: shard snapshot with %d staged-but-ungranted events", len(s.shardLog))
	}
	return s.encodeEngine(e)
}

// ShardRestoreFrame loads one engine frame into a freshly built shard
// engine (after BeginShard, instead of ShardInit). On error the engine is
// unusable; the coordinator aborts the resume.
func (s *Sim) ShardRestoreFrame(frame []byte) error {
	d := wire.NewDec(frame, &s.arena)
	return s.decodeEngine(d)
}

// encodeEngine appends the engine's state sections: header, counters,
// nodes (output + handler state), links (busy/txSeq/outbox), events, and
// trace.
func (s *Sim) encodeEngine(e *wire.Enc) error {
	// Header: enough to reject a restore into a mismatched engine.
	e.U32(uint32(s.g.N()))
	e.Str(s.adv.Name())
	e.F64(s.lookahead)
	e.Bool(s.keepTrace)
	// Whether Init already ran (false only for a pre-run snapshot, whose
	// restore must still run Init rather than resume).
	e.Bool(s.running || s.resumed)

	// Counters.
	e.F64(s.now)
	e.F64(s.lastOutputTime)
	e.U64(s.eventSq)
	e.U64(s.steps)
	e.U64(s.msgs)
	e.U64(s.acks)
	e.U64(s.dropped)
	e.U64(s.retrans)
	e.U64(s.undeliv)
	e.I64(int64(s.outCount))
	e.U32(uint32(len(s.perProto)))
	for _, n := range s.perProto {
		e.U64(n)
	}

	// Nodes: output slot plus handler state, keyed by global id.
	outB, outA := s.outBodies, s.outAnys
	e.U32(uint32(s.g.NLocal()))
	for i := 0; i < s.g.NLocal(); i++ {
		id := s.nodeBase + graph.NodeID(i)
		e.I32(int32(id))
		e.Bool(s.hasOut[i])
		if s.hasOut[i] {
			var b wire.Body
			if outB != nil {
				b = outB[i]
			}
			if b.Kind == 0 {
				var v any
				if outA != nil {
					v = outA[i]
				}
				return fmt.Errorf("async: node %d output a boxed %T; snapshots carry only outval-encodable outputs", id, v)
			}
			e.Body(b)
		}
		sc, ok := s.handlers[i].(wire.StateCodec)
		if !ok {
			return fmt.Errorf("async: handler %T of node %d does not implement wire.StateCodec; engine state cannot be snapshotted", s.handlers[i], id)
		}
		if pr, ok := s.handlers[i].(StateCodecProbe); ok && !pr.StateCodecOK() {
			return fmt.Errorf("async: handler %T of node %d hosts a module without a state codec; engine state cannot be snapshotted", s.handlers[i], id)
		}
		mark := e.BeginBlob()
		sc.SaveState(e)
		e.EndBlob(mark)
	}

	// Links: every locally-owned directed link with non-default state,
	// keyed by its (from, to) endpoints. The whole section rides in a blob
	// with a trailing count because the filter runs inside the single pass.
	mark := e.BeginBlob()
	nLinks := 0
	for i := 0; i < s.g.NLocal(); i++ {
		from := s.nodeBase + graph.NodeID(i)
		base := s.g.LinkOffset(from)
		for j := 0; j < s.g.Degree(from); j++ {
			l := base + graph.LinkID(j)
			ob := s.boxes[l]
			if !s.busy[l] && s.txSeq[l] == 0 && (ob == nil || ob.queued == 0) {
				continue
			}
			nLinks++
			e.I32(int32(from))
			e.I32(int32(s.g.LinkDst(l)))
			e.Bool(s.busy[l])
			e.U32(s.txSeq[l])
			if ob == nil || ob.queued == 0 {
				// A drained outbox holds no live rotation state (empty front
				// stages retire on their final pop), so only busy/txSeq carry.
				e.U32(0)
				continue
			}
			e.U32(uint32(len(ob.stages)))
			for si := range ob.stages {
				sq := &ob.stages[si]
				e.I64(int64(sq.stage))
				e.U32(uint32(sq.next))
				e.U32(uint32(len(sq.protos)))
				for pi := range sq.protos {
					pf := &sq.protos[pi]
					e.I32(int32(pf.proto))
					e.U32(uint32(len(pf.msgs) - pf.head))
					for mi := pf.head; mi < len(pf.msgs); mi++ {
						e.Body(pf.msgs[mi].Body)
					}
				}
			}
		}
	}
	e.EndBlob(mark)
	e.U32(uint32(nLinks))

	// Events.
	e.U32(uint32(s.events.size))
	encodeEv := func(ev *event) {
		e.U8(ev.kind)
		e.U8(ev.attempt)
		e.F64(ev.t)
		e.U64(ev.seq)
		e.I32(int32(ev.src))
		e.I32(int32(ev.dst))
		e.I32(int32(ev.msg.Proto))
		e.I64(int64(ev.msg.Stage))
		e.Body(ev.msg.Body)
	}
	s.events.forEach(encodeEv)

	// Trace: record-only bodies, handle images verbatim.
	e.U32(uint32(len(s.trace)))
	for i := range s.trace {
		te := &s.trace[i]
		e.F64(te.T)
		e.U64(te.Seq)
		e.I32(int32(te.From))
		e.I32(int32(te.To))
		e.I32(int32(te.Msg.Proto))
		e.I64(int64(te.Msg.Stage))
		e.RawBody(te.Msg.Body)
		e.U8(uint8(te.Kind))
	}
	return nil
}

// localNode reports whether v is hosted by this engine.
func (s *Sim) localNode(v graph.NodeID) bool {
	i := int(v - s.nodeBase)
	return i >= 0 && i < s.g.NLocal()
}

// decodeEngine reads an encodeEngine frame into a just-reset engine. On
// failure the caller resets the engine, which releases every segment the
// partial decode carved.
func (s *Sim) decodeEngine(d *wire.Dec) error {
	if n := d.U32(); !d.Failed() && int(n) != s.g.N() {
		return fmt.Errorf("async: snapshot of a %d-node graph restored into %d nodes", n, s.g.N())
	}
	if name := d.Str(); !d.Failed() && name != s.adv.Name() {
		return fmt.Errorf("async: snapshot under adversary %q restored under %q", name, s.adv.Name())
	}
	if la := d.F64(); !d.Failed() && la != s.lookahead {
		return fmt.Errorf("async: snapshot lookahead %g, engine has %g", la, s.lookahead)
	}
	if kt := d.Bool(); !d.Failed() && kt != s.keepTrace {
		return fmt.Errorf("async: snapshot traced=%v, engine traced=%v", kt, s.keepTrace)
	}
	inited := d.Bool()

	s.now = d.F64()
	s.lastOutputTime = d.F64()
	s.eventSq = d.U64()
	s.steps = d.U64()
	s.msgs = d.U64()
	s.acks = d.U64()
	s.dropped = d.U64()
	s.retrans = d.U64()
	s.undeliv = d.U64()
	s.outCount = int(d.I64())
	for i, n := 0, int(d.U32()); i < n && !d.Failed(); i++ {
		s.perProto = bumpProtoBy(s.perProto, Proto(i), d.U64())
	}

	nNodes := int(d.U32())
	if !d.Failed() && nNodes != s.g.NLocal() {
		return fmt.Errorf("async: snapshot carries %d node records, engine hosts %d", nNodes, s.g.NLocal())
	}
	for i := 0; i < nNodes && !d.Failed(); i++ {
		id := graph.NodeID(d.I32())
		if d.Failed() {
			break
		}
		if !s.localNode(id) {
			d.Fail("node record %d outside this engine's range", id)
			break
		}
		li := s.li(id)
		if d.Bool() {
			b := d.Body()
			if !d.Failed() && b.Kind == 0 {
				d.Fail("node %d output record has zero kind", id)
				break
			}
			s.hasOut[li] = true
			s.bodySlab()[li] = b
		}
		sc, ok := s.handlers[li].(wire.StateCodec)
		if !ok {
			return fmt.Errorf("async: handler %T of node %d does not implement wire.StateCodec; snapshot cannot be restored", s.handlers[li], id)
		}
		end := d.BeginBlob()
		if d.Failed() {
			break
		}
		sc.LoadState(d)
		d.EndBlob(end)
	}

	linkBlob := d.SkipBlob()
	nLinks := int(d.U32())
	ld := wire.NewDec(linkBlob, &s.arena)
	for i := 0; i < nLinks && !ld.Failed(); i++ {
		from := graph.NodeID(ld.I32())
		to := graph.NodeID(ld.I32())
		if ld.Failed() {
			break
		}
		if !s.localNode(from) {
			ld.Fail("link record %d->%d not owned by this engine", from, to)
			break
		}
		l := s.g.LinkBetween(from, to)
		if l < 0 {
			ld.Fail("link record %d->%d along a non-edge", from, to)
			break
		}
		s.busy[l] = ld.Bool()
		s.txSeq[l] = ld.U32()
		nStages := int(ld.U32())
		if nStages == 0 {
			continue
		}
		// Reconstruct the outbox structure verbatim — including drained
		// protoFIFO rotation slots and the round-robin cursor — because the
		// rotation's first-appearance order decides future injection order.
		ob := s.boxes[l]
		if ob == nil {
			ob = &outbox{}
			s.boxes[l] = ob
		}
		prevStage := 0
		for si := 0; si < nStages && !ld.Failed(); si++ {
			stage := int(ld.I64())
			next := int(ld.U32())
			nProtos := int(ld.U32())
			if si > 0 && stage <= prevStage {
				ld.Fail("link %d->%d stages out of order (%d after %d)", from, to, stage, prevStage)
				break
			}
			prevStage = stage
			if next < 0 || (nProtos > 0 && next >= nProtos) || (nProtos == 0 && next != 0) {
				ld.Fail("link %d->%d stage %d rotation cursor %d outside %d protos", from, to, stage, next, nProtos)
				break
			}
			sq := stageQueue{stage: stage, next: next}
			for pi := 0; pi < nProtos && !ld.Failed(); pi++ {
				pf := protoFIFO{proto: Proto(ld.I32())}
				nMsgs := int(ld.U32())
				for mi := 0; mi < nMsgs && !ld.Failed(); mi++ {
					pf.msgs = append(pf.msgs, Msg{Proto: pf.proto, Stage: stage, Body: ld.Body()})
				}
				sq.queued += len(pf.msgs)
				sq.protos = append(sq.protos, pf)
			}
			ob.stages = append(ob.stages, sq)
			ob.queued += sq.queued
		}
	}
	if err := ld.Err(); err != nil {
		return err
	}

	nEvents := int(d.U32())
	for i := 0; i < nEvents && !d.Failed(); i++ {
		var ev event
		ev.kind = d.U8()
		ev.attempt = d.U8()
		ev.t = d.F64()
		ev.seq = d.U64()
		ev.src = graph.NodeID(d.I32())
		ev.dst = graph.NodeID(d.I32())
		ev.msg.Proto = Proto(d.I32())
		ev.msg.Stage = int(d.I64())
		ev.msg.Body = d.Body()
		if d.Failed() {
			break
		}
		switch ev.kind {
		case evDeliver:
			if !s.localNode(ev.dst) {
				d.Fail("delivery event for remote node %d", ev.dst)
			} else if s.localNode(ev.src) {
				if ev.link = s.g.LinkBetween(ev.src, ev.dst); ev.link < 0 {
					d.Fail("delivery event %d->%d along a non-edge", ev.src, ev.dst)
				}
			} else if back := s.g.LinkBetween(ev.dst, ev.src); back >= 0 {
				ev.link = ^back
			} else {
				d.Fail("delivery event %d->%d along a non-edge", ev.src, ev.dst)
			}
		case evAckArrive, evRetrans:
			if !s.localNode(ev.src) {
				d.Fail("event kind %d owned by remote node %d", ev.kind, ev.src)
			} else if ev.link = s.g.LinkBetween(ev.src, ev.dst); ev.link < 0 {
				d.Fail("event kind %d %d->%d along a non-edge", ev.kind, ev.src, ev.dst)
			}
		default:
			d.Fail("event of unknown kind %d", ev.kind)
		}
		if d.Failed() {
			break
		}
		s.events.push(&ev)
	}

	nTrace := int(d.U32())
	for i := 0; i < nTrace && !d.Failed(); i++ {
		var te TraceEntry
		te.T = d.F64()
		te.Seq = d.U64()
		te.From = graph.NodeID(d.I32())
		te.To = graph.NodeID(d.I32())
		te.Msg.Proto = Proto(d.I32())
		te.Msg.Stage = int(d.I64())
		te.Msg.Body = d.RawBody()
		te.Kind = TraceKind(d.U8())
		if !d.Failed() {
			s.trace = append(s.trace, te)
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("async: snapshot frame has %d trailing bytes", d.Remaining())
	}
	if inited {
		// Init/Start will not run again on this engine; give modules that
		// cache the node reference during Start a chance to re-capture it.
		for i := range s.handlers {
			if rb, ok := s.handlers[i].(Rebinder); ok {
				rb.Rebind(&s.nodes[i])
			}
		}
	}
	s.resumed = inited
	return nil
}

// ResplitEngineFrames merges per-shard engine frames from a distributed
// snapshot and re-partitions them into k frames under a (possibly
// different) ownership function: node and link records route to the owner
// of their node (links to the sender's owner, matching the engine's
// owner-sharded link state), events to the owner of the node whose handler
// they invoke, and the trace — already sorted per frame — k-way merges by
// (T, Seq) into frame 0. Additive counters aggregate into frame 0 (the
// coordinator's RESULT merge sums them back); clocks take the global
// maximum everywhere, which every pending event's timestamp dominates
// (pending events all lie at or beyond the last window boundary, which
// bounds every engine's clock from above). nextSeq seeds frame 0's
// event-sequence counter for single-engine restores (shard engines take
// seqs from coordinator grants instead).
func ResplitEngineFrames(frames [][]byte, k int, owner func(graph.NodeID) int, nextSeq uint64) ([][]byte, error) {
	if k < 1 {
		return nil, fmt.Errorf("async: resplit into %d frames", k)
	}
	type secBufs struct {
		nodes, links, events    wire.Enc
		nNodes, nLinks, nEvents int
	}
	out := make([]secBufs, k)
	var (
		headN                                        uint32
		headAdv                                      string
		headLA                                       float64
		headTrace, headInited                        bool
		maxNow, maxLastOut                           float64
		steps, msgs, acks, dropped, retrans, undeliv uint64
		outCount                                     int64
		perProto                                     []uint64
		traces                                       [][]byte // per input frame: raw trace records
		traceCnt                                     []int
	)
	route := func(id graph.NodeID) (int, error) {
		o := owner(id)
		if o < 0 || o >= k {
			return 0, fmt.Errorf("async: resplit owner %d of node %d outside %d shards", o, id, k)
		}
		return o, nil
	}
	for fi, frame := range frames {
		d := wire.NewDec(frame, nil)
		n := d.U32()
		adv := d.Str()
		la := d.F64()
		kt := d.Bool()
		it := d.Bool()
		if fi == 0 {
			headN, headAdv, headLA, headTrace, headInited = n, adv, la, kt, it
		} else if n != headN || adv != headAdv || la != headLA || kt != headTrace || it != headInited {
			return nil, fmt.Errorf("async: resplit frames disagree on engine configuration")
		}
		if now := d.F64(); now > maxNow {
			maxNow = now
		}
		if lo := d.F64(); lo > maxLastOut {
			maxLastOut = lo
		}
		d.U64() // per-frame eventSq: shard engines take seqs from grants
		steps += d.U64()
		msgs += d.U64()
		acks += d.U64()
		dropped += d.U64()
		retrans += d.U64()
		undeliv += d.U64()
		outCount += d.I64()
		for i, pn := 0, int(d.U32()); i < pn && !d.Failed(); i++ {
			for len(perProto) <= i {
				perProto = append(perProto, 0)
			}
			perProto[i] += d.U64()
		}

		for i, nn := 0, int(d.U32()); i < nn && !d.Failed(); i++ {
			id := graph.NodeID(d.I32())
			hasOut := d.Bool()
			var body []byte
			if hasOut {
				body = d.SkipBody()
			}
			blob := d.SkipBlob()
			if d.Failed() {
				break
			}
			o, err := route(id)
			if err != nil {
				return nil, err
			}
			t := &out[o]
			t.nNodes++
			t.nodes.I32(int32(id))
			t.nodes.Bool(hasOut)
			t.nodes.Raw(body)
			bm := t.nodes.BeginBlob()
			t.nodes.Raw(blob)
			t.nodes.EndBlob(bm)
		}

		linkBlob := d.SkipBlob()
		nLinks := int(d.U32())
		ld := wire.NewDec(linkBlob, nil)
		for i := 0; i < nLinks && !ld.Failed(); i++ {
			from := graph.NodeID(ld.I32())
			if ld.Failed() {
				break
			}
			o, err := route(from)
			if err != nil {
				return nil, err
			}
			t := &out[o]
			t.nLinks++
			t.links.I32(int32(from))
			t.links.I32(ld.I32())
			t.links.Bool(ld.Bool())
			t.links.U32(ld.U32())
			nStages := int(ld.U32())
			t.links.U32(uint32(nStages))
			for si := 0; si < nStages && !ld.Failed(); si++ {
				t.links.I64(ld.I64())
				t.links.U32(ld.U32())
				nProtos := int(ld.U32())
				t.links.U32(uint32(nProtos))
				for pi := 0; pi < nProtos && !ld.Failed(); pi++ {
					t.links.I32(ld.I32())
					nMsgs := int(ld.U32())
					t.links.U32(uint32(nMsgs))
					for mi := 0; mi < nMsgs && !ld.Failed(); mi++ {
						t.links.Raw(ld.SkipBody())
					}
				}
			}
		}
		if err := ld.Err(); err != nil {
			return nil, err
		}

		for i, ne := 0, int(d.U32()); i < ne && !d.Failed(); i++ {
			kind := d.U8()
			attempt := d.U8()
			tm := d.F64()
			seq := d.U64()
			src := graph.NodeID(d.I32())
			dst := graph.NodeID(d.I32())
			proto := d.I32()
			stage := d.I64()
			body := d.SkipBody()
			if d.Failed() {
				break
			}
			ownNode := src
			if kind == evDeliver {
				ownNode = dst
			}
			o, err := route(ownNode)
			if err != nil {
				return nil, err
			}
			t := &out[o]
			t.nEvents++
			t.events.U8(kind)
			t.events.U8(attempt)
			t.events.F64(tm)
			t.events.U64(seq)
			t.events.I32(int32(src))
			t.events.I32(int32(dst))
			t.events.I32(proto)
			t.events.I64(stage)
			t.events.Raw(body)
		}

		// The trace section routes wholesale to frame 0, k-way merged below.
		tc := int(d.U32())
		traceStart := len(frame) - d.Remaining()
		for i := 0; i < tc && !d.Failed(); i++ {
			d.F64()
			d.U64()
			d.I32()
			d.I32()
			d.I32()
			d.I64()
			d.RawBody()
			d.U8()
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		if d.Remaining() != 0 {
			return nil, fmt.Errorf("async: resplit frame %d has %d trailing bytes", fi, d.Remaining())
		}
		traces = append(traces, frame[traceStart:])
		traceCnt = append(traceCnt, tc)
	}

	mergedTrace, nTrace := mergeTraceRecords(traces, traceCnt)

	result := make([][]byte, k)
	for i := 0; i < k; i++ {
		e := wire.NewEnc(nil)
		e.U32(headN)
		e.Str(headAdv)
		e.F64(headLA)
		e.Bool(headTrace)
		e.Bool(headInited)
		e.F64(maxNow)
		e.F64(maxLastOut)
		if i == 0 {
			e.U64(nextSeq)
			e.U64(steps)
			e.U64(msgs)
			e.U64(acks)
			e.U64(dropped)
			e.U64(retrans)
			e.U64(undeliv)
			e.I64(outCount)
			e.U32(uint32(len(perProto)))
			for _, n := range perProto {
				e.U64(n)
			}
		} else {
			for j := 0; j < 8; j++ { // eventSq + six counters + outCount
				e.U64(0)
			}
			e.U32(0)
		}
		t := &out[i]
		e.U32(uint32(t.nNodes))
		e.Raw(t.nodes.Bytes())
		lm := e.BeginBlob()
		e.Raw(t.links.Bytes())
		e.EndBlob(lm)
		e.U32(uint32(t.nLinks))
		e.U32(uint32(t.nEvents))
		e.Raw(t.events.Bytes())
		if i == 0 {
			e.U32(uint32(nTrace))
			e.Raw(mergedTrace)
		} else {
			e.U32(0)
		}
		result[i] = append([]byte(nil), e.Bytes()...)
	}
	return result, nil
}

// traceRecLen is the fixed wire size of one trace record.
const traceRecLen = 8 + 8 + 4 + 4 + 4 + 8 + wire.BodyWireSize + 1

// mergeTraceRecords k-way merges per-frame raw trace sections — each
// sorted by (T, Seq), keys globally unique — into one sorted byte run.
func mergeTraceRecords(sections [][]byte, counts []int) ([]byte, int) {
	var out []byte
	total := 0
	for _, c := range counts {
		total += c
	}
	cur := make([]int, len(sections))
	key := func(i int) (float64, uint64) {
		d := wire.NewDec(sections[i][cur[i]*traceRecLen:], nil)
		return d.F64(), d.U64()
	}
	for emitted := 0; emitted < total; emitted++ {
		best := -1
		var bt float64
		var bs uint64
		for i := range sections {
			if cur[i] == counts[i] {
				continue
			}
			t, sq := key(i)
			if best < 0 || t < bt || (t == bt && sq < bs) {
				best, bt, bs = i, t, sq
			}
		}
		out = append(out, sections[best][cur[best]*traceRecLen:(cur[best]+1)*traceRecLen]...)
		cur[best]++
	}
	return out, total
}
