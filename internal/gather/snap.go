package gather

import (
	"repro/internal/graph"
	"repro/internal/wire"
)

var _ wire.StateCodec = (*Module)(nil)

// SaveState implements wire.StateCodec: the node id, then every session
// slot in creation order with its convergecasts in TreeOf(me) order. The
// cover, proto, callbacks, and stage map are constructor-owned and stay
// out of the frame.
func (m *Module) SaveState(e *wire.Enc) {
	e.I32(int32(m.me))
	e.U32(uint32(len(m.slots)))
	for _, sl := range m.slots {
		e.Int(sl.id)
		e.Bool(sl.began)
		e.Bool(sl.markedAll)
		e.Int(sl.confirmed)
		e.Bool(sl.fired)
		for i := range sl.clusters {
			st := &sl.clusters[i]
			e.Bool(st.began)
			e.Bool(st.localDone)
			e.Bool(st.reported)
			e.Bool(st.confirmed)
			for _, done := range st.childDone {
				e.Bool(done)
			}
		}
	}
}

// LoadState implements wire.StateCodec. The slot layout follows from the
// recorded node id, which must name a node of the cover; session ids must
// be distinct.
func (m *Module) LoadState(d *wire.Dec) {
	m.me = graph.NodeID(d.I32())
	nSlots := int(d.U32())
	m.slots = nil
	if nSlots > 0 && !d.Failed() && (m.me < 0 || int(m.me) >= m.cov.N()) {
		d.Fail("gather: state for node %d outside the cover's %d nodes", m.me, m.cov.N())
	}
	for i := 0; i < nSlots && !d.Failed(); i++ {
		id := d.Int()
		if m.find(id) != nil {
			d.Fail("gather: session %d saved twice", id)
			return
		}
		sl := m.newSlot(id)
		sl.began = d.Bool()
		sl.markedAll = d.Bool()
		sl.confirmed = d.Int()
		sl.fired = d.Bool()
		for j := range sl.clusters {
			st := &sl.clusters[j]
			st.began = d.Bool()
			st.localDone = d.Bool()
			st.reported = d.Bool()
			st.confirmed = d.Bool()
			for k := range st.childDone {
				st.childDone[k] = d.Bool()
			}
		}
		m.slots = append(m.slots, sl)
	}
}
