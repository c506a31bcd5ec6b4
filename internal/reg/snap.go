package reg

import (
	"repro/internal/graph"
	"repro/internal/wire"
)

var _ wire.StateCodec = (*Module)(nil)

// SaveState implements wire.StateCodec: the node id, then every session
// slot in creation order with its states in TreeOf(me) order.
// Configuration (proto, cover, callbacks, stage map) is reconstructed by
// the module's constructor and stays out of the frame.
func (m *Module) SaveState(e *wire.Enc) {
	e.I32(int32(m.me))
	e.U32(uint32(len(m.slots)))
	for _, sl := range m.slots {
		e.Int(sl.id)
		for i := range sl.states {
			st := &sl.states[i]
			e.U8(uint8(st.local))
			e.Bool(st.finished)
			e.Bool(st.pending)
			e.Bool(st.upDirty)
			e.U32(uint32(len(st.invokers)))
			for _, v := range st.invokers {
				e.I32(int32(v))
			}
			for _, mark := range st.childMark {
				e.U8(uint8(mark))
			}
		}
	}
}

// LoadState implements wire.StateCodec. The slot layout follows from the
// recorded node id, which must name a node of the cover; session ids must
// be distinct, invokers must be tree children, and every enum in range.
func (m *Module) LoadState(d *wire.Dec) {
	m.me = graph.NodeID(d.I32())
	nSlots := int(d.U32())
	m.slots = nil
	if nSlots > 0 && !d.Failed() && (m.me < 0 || int(m.me) >= m.cov.N()) {
		d.Fail("reg: state for node %d outside the cover's %d nodes", m.me, m.cov.N())
	}
	for i := 0; i < nSlots && !d.Failed(); i++ {
		id := d.Int()
		if m.find(id) != nil {
			d.Fail("reg: session %d saved twice", id)
			return
		}
		sl := m.newSlot(id)
		for j, c := range m.cov.TreeOf(m.me) {
			st := &sl.states[j]
			st.local = localState(d.U8())
			st.finished = d.Bool()
			st.pending = d.Bool()
			st.upDirty = d.Bool()
			nInv := int(d.U32())
			for k := 0; k < nInv && !d.Failed(); k++ {
				v := graph.NodeID(d.I32())
				if m.cov.Cluster(c).ChildPos(m.me, v) < 0 {
					d.Fail("reg: cluster %d session %d invoker %d is not a child of node %d", c, id, v, m.me)
				}
				st.invokers = append(st.invokers, v)
			}
			for k := range st.childMark {
				st.childMark[k] = edgeMark(d.U8())
				if st.childMark[k] > markWaiting {
					d.Fail("reg: cluster %d session %d has edge mark %d", c, id, st.childMark[k])
				}
			}
			if st.local > free {
				d.Fail("reg: state for cluster %d session %d has local state %d", c, id, st.local)
			}
		}
		m.slots = append(m.slots, sl)
	}
}
