package core

import (
	"fmt"
	"sort"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// State codecs for the synchronizer stack and the α/β/γ baselines. Each
// handler serializes its complete mutable run state — the embedded
// synchronous algorithm first (as a blob, via its own wire.StateCodec),
// then the synchronizer's own bookkeeping — so the engine state plane can
// checkpoint and resume any synchronized run.
//
// The congestStamp deliberately stays out of every frame: its epoch
// counter only ever grows and stamps are compared for equality, so a
// restored handler's fresh zero stamps can never falsely collide with a
// future epoch — the CONGEST guard re-arms itself.

var (
	_ wire.StateCodec       = (*nodeCore)(nil)
	_ async.StateCodecProbe = (*nodeCore)(nil)
	_ wire.StateCodec       = (*alphaNode)(nil)
	_ async.StateCodecProbe = (*alphaNode)(nil)
	_ wire.StateCodec       = (*betaNode)(nil)
	_ async.StateCodecProbe = (*betaNode)(nil)
	_ wire.StateCodec       = (*gammaNode)(nil)
	_ async.StateCodecProbe = (*gammaNode)(nil)
)

// --- shared helpers --------------------------------------------------------

func algoCodecOK(algo syncrun.Handler) bool {
	if _, ok := algo.(wire.StateCodec); !ok {
		return false
	}
	return true
}

func saveAlgoState(e *wire.Enc, algo syncrun.Handler) {
	sc, ok := algo.(wire.StateCodec)
	if !ok {
		panic(fmt.Sprintf("core: synchronized algorithm %T does not implement wire.StateCodec", algo))
	}
	mark := e.BeginBlob()
	sc.SaveState(e)
	e.EndBlob(mark)
}

func loadAlgoState(d *wire.Dec, algo syncrun.Handler) {
	sc, ok := algo.(wire.StateCodec)
	if !ok {
		d.Fail("core: synchronized algorithm %T does not implement wire.StateCodec", algo)
		return
	}
	end := d.BeginBlob()
	if d.Failed() {
		return
	}
	sc.LoadState(d)
	d.EndBlob(end)
}

func saveIncoming(e *wire.Enc, batch []syncrun.Incoming) {
	e.U32(uint32(len(batch)))
	for _, in := range batch {
		e.I32(int32(in.From))
		e.Body(in.Body)
	}
}

func loadIncoming(d *wire.Dec) []syncrun.Incoming {
	n := int(d.U32())
	var batch []syncrun.Incoming
	for i := 0; i < n && !d.Failed(); i++ {
		in := syncrun.Incoming{From: graph.NodeID(d.I32()), Body: d.Body()}
		if !d.Failed() {
			batch = append(batch, in)
		}
	}
	return batch
}

func sortedInts[T any](m map[int]T) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func saveIntSet(e *wire.Enc, set map[int]bool) {
	keys := sortedInts(set)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Int(k)
	}
}

func loadIntSet(d *wire.Dec) map[int]bool {
	n := int(d.U32())
	set := make(map[int]bool, n)
	for i := 0; i < n && !d.Failed(); i++ {
		set[d.Int()] = true
	}
	return set
}

func saveIntCounts(e *wire.Enc, m map[int]int) {
	keys := sortedInts(m)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Int(k)
		e.Int(m[k])
	}
}

func loadIntCounts(d *wire.Dec) map[int]int {
	n := int(d.U32())
	m := make(map[int]int, n)
	for i := 0; i < n && !d.Failed(); i++ {
		k := d.Int()
		m[k] = d.Int()
	}
	return m
}

func saveNodeList(e *wire.Enc, ids []graph.NodeID) {
	e.U32(uint32(len(ids)))
	for _, v := range ids {
		e.I32(int32(v))
	}
}

func loadNodeList(d *wire.Dec) []graph.NodeID {
	n := int(d.U32())
	var ids []graph.NodeID
	for i := 0; i < n && !d.Failed(); i++ {
		ids = append(ids, graph.NodeID(d.I32()))
	}
	return ids
}

// --- nodeCore --------------------------------------------------------------

// StateCodecOK implements async.StateCodecProbe: the core is serializable
// iff the embedded algorithm is.
func (c *nodeCore) StateCodecOK() bool { return algoCodecOK(c.algo) }

// SaveState implements wire.StateCodec.
func (c *nodeCore) SaveState(e *wire.Enc) {
	saveAlgoState(e, c.algo)
	e.Bool(c.started)
	e.Bool(c.originator)
	e.U32(uint32(len(c.initSends)))
	for _, s := range c.initSends {
		e.I32(int32(s.to))
		e.Body(s.body)
	}
	e.Int(c.barrierRegWait)

	pulses := sortedInts(c.vnodes)
	e.U32(uint32(len(pulses)))
	for _, p := range pulses {
		e.Int(p)
		saveVnode(e, c.vnodes[p])
	}

	batches := sortedInts(c.recvd)
	e.U32(uint32(len(batches)))
	for _, p := range batches {
		e.Int(p)
		saveIncoming(e, c.recvd[p])
	}
	saveIntSet(e, c.recvdClosed)
}

// LoadState implements wire.StateCodec.
func (c *nodeCore) LoadState(d *wire.Dec) {
	loadAlgoState(d, c.algo)
	c.started = d.Bool()
	c.originator = d.Bool()
	nSends := int(d.U32())
	c.initSends = nil
	for i := 0; i < nSends && !d.Failed(); i++ {
		s := capturedSend{to: graph.NodeID(d.I32()), body: d.Body()}
		if !d.Failed() {
			c.initSends = append(c.initSends, s)
		}
	}
	c.barrierRegWait = d.Int()

	nVnodes := int(d.U32())
	c.vnodes = make(map[int]*vnode, nVnodes)
	for i := 0; i < nVnodes && !d.Failed(); i++ {
		p := d.Int()
		v := loadVnode(d)
		if !d.Failed() {
			if v.pulse != p {
				d.Fail("core: vnode keyed %d carries pulse %d", p, v.pulse)
				return
			}
			c.vnodes[p] = v
		}
	}

	nBatches := int(d.U32())
	c.recvd = make(map[int][]syncrun.Incoming, nBatches)
	for i := 0; i < nBatches && !d.Failed(); i++ {
		p := d.Int()
		batch := loadIncoming(d)
		if !d.Failed() {
			c.recvd[p] = batch
		}
	}
	c.recvdClosed = loadIntSet(d)
}

func saveVnode(e *wire.Enc, v *vnode) {
	e.Int(v.pulse)
	e.I32(int32(v.parentPhys))
	e.Bool(v.parentSelf)
	e.Bool(v.hasParent)
	e.Bool(v.evaluated)
	e.Bool(v.sentAny)
	e.Int(v.outstandingReplies)
	saveNodeList(e, v.childPhys)
	e.Bool(v.selfChild)

	qs := sortedInts(v.q)
	e.U32(uint32(len(qs)))
	for _, q := range qs {
		st := v.q[q]
		e.Int(st.q)
		e.Int(st.reports)
		e.Bool(st.anyReady)
		e.Bool(st.resolved)
		e.Bool(st.ready)
		e.Bool(st.forwarded)
		e.Int(st.gateOutstanding)
		saveNodeList(e, st.readyPhys)
		e.Bool(st.readySelf)
	}
	saveIntCounts(e, v.regOutstanding)
	saveIntSet(e, v.registered)
	saveIntCounts(e, v.gaOutstanding)
}

func loadVnode(d *wire.Dec) *vnode {
	v := &vnode{
		pulse:              d.Int(),
		parentPhys:         graph.NodeID(d.I32()),
		parentSelf:         d.Bool(),
		hasParent:          d.Bool(),
		evaluated:          d.Bool(),
		sentAny:            d.Bool(),
		outstandingReplies: d.Int(),
		childPhys:          loadNodeList(d),
		selfChild:          d.Bool(),
	}
	nQ := int(d.U32())
	v.q = make(map[int]*qstate, nQ)
	for i := 0; i < nQ && !d.Failed(); i++ {
		st := &qstate{
			q:               d.Int(),
			reports:         d.Int(),
			anyReady:        d.Bool(),
			resolved:        d.Bool(),
			ready:           d.Bool(),
			forwarded:       d.Bool(),
			gateOutstanding: d.Int(),
			readyPhys:       loadNodeList(d),
			readySelf:       d.Bool(),
		}
		if !d.Failed() {
			v.q[st.q] = st
		}
	}
	v.regOutstanding = loadIntCounts(d)
	v.registered = loadIntSet(d)
	v.gaOutstanding = loadIntCounts(d)
	return v
}

// --- alpha -----------------------------------------------------------------

// StateCodecOK implements async.StateCodecProbe.
func (a *alphaNode) StateCodecOK() bool { return algoCodecOK(a.algo) }

// SaveState implements wire.StateCodec. The bound-indexed slices are fixed
// length (bound+1, set at construction), so only the entries travel.
func (a *alphaNode) SaveState(e *wire.Enc) {
	saveAlgoState(e, a.algo)
	e.Int(a.pulse)
	for p := range a.recvd {
		saveIncoming(e, a.recvd[p])
		e.Int(a.safeCnt[p])
		e.Int(a.sendAcked[p])
		e.Bool(a.selfSafe[p])
		e.Bool(a.sentSafe[p])
	}
}

// LoadState implements wire.StateCodec.
func (a *alphaNode) LoadState(d *wire.Dec) {
	loadAlgoState(d, a.algo)
	a.pulse = d.Int()
	for p := range a.recvd {
		a.recvd[p] = loadIncoming(d)
		a.safeCnt[p] = d.Int()
		a.sendAcked[p] = d.Int()
		a.selfSafe[p] = d.Bool()
		a.sentSafe[p] = d.Bool()
	}
}

// --- beta ------------------------------------------------------------------

// StateCodecOK implements async.StateCodecProbe.
func (b *betaNode) StateCodecOK() bool { return algoCodecOK(b.algo) }

// SaveState implements wire.StateCodec.
func (b *betaNode) SaveState(e *wire.Enc) {
	saveAlgoState(e, b.algo)
	e.Int(b.pulse)
	for p := range b.recvd {
		saveIncoming(e, b.recvd[p])
		e.Int(b.sendAcked[p])
		e.Bool(b.selfSafe[p])
		e.Int(b.childSafe[p])
		e.Bool(b.reportSent[p])
	}
}

// LoadState implements wire.StateCodec.
func (b *betaNode) LoadState(d *wire.Dec) {
	loadAlgoState(d, b.algo)
	b.pulse = d.Int()
	for p := range b.recvd {
		b.recvd[p] = loadIncoming(d)
		b.sendAcked[p] = d.Int()
		b.selfSafe[p] = d.Bool()
		b.childSafe[p] = d.Int()
		b.reportSent[p] = d.Bool()
	}
}

// --- gamma -----------------------------------------------------------------

// StateCodecOK implements async.StateCodecProbe.
func (gm *gammaNode) StateCodecOK() bool { return algoCodecOK(gm.algo) }

// SaveState implements wire.StateCodec.
func (gm *gammaNode) SaveState(e *wire.Enc) {
	saveAlgoState(e, gm.algo)
	e.Int(gm.pulse)
	for p := range gm.recvd {
		saveIncoming(e, gm.recvd[p])
		e.Int(gm.sendAcked[p])
		e.Bool(gm.safe[p])
	}
	keys := make([]gKey, 0, len(gm.ph))
	for k := range gm.ph {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].cluster != keys[j].cluster {
			return keys[i].cluster < keys[j].cluster
		}
		return keys[i].pulse < keys[j].pulse
	})
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		st := gm.ph[k]
		e.Int(k.cluster)
		e.Int(k.pulse)
		e.Int(st.p1Count)
		e.Bool(st.p1Sent)
		e.Bool(st.cSafe)
		e.Int(st.extSafe)
		e.Int(st.p2Count)
		e.Bool(st.p2Sent)
	}
}

// LoadState implements wire.StateCodec.
func (gm *gammaNode) LoadState(d *wire.Dec) {
	loadAlgoState(d, gm.algo)
	gm.pulse = d.Int()
	for p := range gm.recvd {
		gm.recvd[p] = loadIncoming(d)
		gm.sendAcked[p] = d.Int()
		gm.safe[p] = d.Bool()
	}
	n := int(d.U32())
	gm.ph = make(map[gKey]*gammaPhase, n)
	for i := 0; i < n && !d.Failed(); i++ {
		k := gKey{cluster: d.Int(), pulse: d.Int()}
		st := &gammaPhase{
			p1Count: d.Int(),
			p1Sent:  d.Bool(),
			cSafe:   d.Bool(),
			extSafe: d.Int(),
			p2Count: d.Int(),
			p2Sent:  d.Bool(),
		}
		if !d.Failed() {
			gm.ph[k] = st
		}
	}
}
