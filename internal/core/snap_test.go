package core

import (
	"reflect"
	"testing"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// bfsAlgo's wire codec (dist is its only mutable field; src is config).
// Declared here so the stack built over it is fully serializable — the
// precondition for the state plane.
func (h *bfsAlgo) SaveState(e *wire.Enc) { e.Int(h.dist) }
func (h *bfsAlgo) LoadState(d *wire.Dec) { h.dist = d.Int() }

// TestSynchronizedSnapshotMatrix snapshots a mid-flight synchronized
// run — the deepest stack the state plane serializes (node core, per-level
// register and gather modules, all under one Mux) — and resumes it in
// every engine mode. The continuation must be byte-identical to the
// uninterrupted run.
func TestSynchronizedSnapshotMatrix(t *testing.T) {
	g := graph.RandomConnected(24, 55, 9)
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
	cfg := Config{Graph: g, Bound: g.Diameter() + 2, Adversary: async.SeededRandom{Seed: 8}}
	want := Synchronize(cfg, mk)

	for _, k := range []uint64{0, 1, 40, 200, 1000, 5000} {
		a := newSynchronizedSim(cfg, mk)
		a.RunSteps(k)
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at event %d: %v", k, err)
		}
		for _, mode := range []async.ExecutionMode{async.ModeSingle, async.ModeMulti} {
			b := newSynchronizedSim(cfg, mk)
			if err := b.Restore(snap); err != nil {
				t.Fatalf("restore at event %d: %v", k, err)
			}
			if got := b.WithMode(mode).Run(); !reflect.DeepEqual(got, want) {
				t.Fatalf("synchronized run resumed at event %d in mode %d diverged", k, mode)
			}
		}
	}
}

// TestStateCodecRejectsOutOfRangeIndices feeds hand-built frames whose
// pulse, node, session or child indices fall outside the state a node's
// stack lays out to the core, barrier (gather) and registration codecs.
// A checksummed but edited checkpoint is user input: each must decode to
// an error, never an index panic, while the in-range twin decodes cleanly.
func TestStateCodecRejectsOutOfRangeIndices(t *testing.T) {
	g := graph.Grid(4, 4)
	const bound = 8
	sched := NewSchedule(bound)
	layered := BuildLayeredFor(g, bound)
	cov := layered.Level(5)
	fresh := func() *async.Mux { return NewNodeHandler(sched, layered, &bfsAlgo{src: 0}) }
	coreOf := func(m *async.Mux) wire.StateCodec { return m.Module(ProtoAlgo).(wire.StateCodec) }
	barOf := func(m *async.Mux) wire.StateCodec { return m.Module(ProtoBarrierBase + 5).(wire.StateCodec) }
	regOf := func(m *async.Mux) wire.StateCodec { return m.Module(ProtoRegBase + 5).(wire.StateCodec) }

	// core: a fresh core's frame ends with the -1 pulse terminator; the
	// entries go in front of it (no vnode, empty batch, batch closed).
	e := wire.NewEnc(nil)
	coreOf(fresh()).SaveState(e)
	prefix := append([]byte(nil), e.Bytes()[:e.Len()-8]...)
	coreFrame := func(pulses ...int) []byte {
		e := wire.NewEnc(nil)
		e.Raw(prefix)
		for _, p := range pulses {
			e.Int(p)
			e.Bool(false)
			e.U32(0)
			e.Bool(true)
		}
		e.Int(-1)
		return e.Bytes()
	}

	// gather and reg: node id, then slots laid out over that node's trees.
	// The cluster root has tree children, so child marks are exercised.
	// A node id outside the graph has no layout; its slots carry no
	// per-cluster entries.
	root := cov.Cluster(0).Root
	tree := func(v graph.NodeID) []cover.ClusterID {
		if v < 0 || int(v) >= g.N() {
			return nil
		}
		return cov.TreeOf(v)
	}
	children := func(v graph.NodeID) (n int) {
		for _, c := range tree(v) {
			n += len(cov.Cluster(c).ChildrenOf(v))
		}
		return n
	}
	barFrame := func(me graph.NodeID, sessions ...int) []byte {
		e := wire.NewEnc(nil)
		e.I32(int32(me))
		e.U32(uint32(len(sessions)))
		for _, s := range sessions {
			e.Int(s)
			e.Bool(true)
			e.Bool(false)
			e.Int(0)
			e.Bool(false)
			e.Raw(make([]byte, 4*len(tree(me))+children(me)))
		}
		return e.Bytes()
	}
	regFrame := func(me, invoker graph.NodeID, mark uint8) []byte {
		e := wire.NewEnc(nil)
		e.I32(int32(me))
		e.U32(1)
		e.Int(7)
		for _, c := range tree(me) {
			e.U8(0)
			e.Raw(make([]byte, 3))
			e.U32(1)
			e.I32(int32(invoker))
			for range cov.Cluster(c).ChildrenOf(me) {
				e.U8(mark)
			}
		}
		return e.Bytes()
	}
	child := cov.Cluster(0).ChildrenOf(root)[0]
	n := graph.NodeID(g.N())

	cases := []struct {
		name  string
		codec func(*async.Mux) wire.StateCodec
		frame []byte
		bad   bool
	}{
		{"core in range", coreOf, coreFrame(0, 3, bound), false},
		{"core pulse above bound", coreOf, coreFrame(0, bound+1), true},
		{"core negative pulse", coreOf, coreFrame(-2), true},
		{"core repeated pulse", coreOf, coreFrame(3, 3), true},
		{"gather in range", barOf, barFrame(root, 4, 5), false},
		{"gather node above range", barOf, barFrame(n, 4), true},
		{"gather negative node", barOf, barFrame(-1, 4), true},
		{"gather repeated session", barOf, barFrame(root, 4, 4), true},
		{"reg in range", regOf, regFrame(root, child, 2), false},
		{"reg node above range", regOf, regFrame(n, child, 0), true},
		{"reg invoker not a child", regOf, regFrame(root, root, 0), true},
		{"reg edge mark out of range", regOf, regFrame(root, child, 3), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := wire.NewDec(tc.frame, nil)
			tc.codec(fresh()).LoadState(d)
			if err := d.Err(); (err != nil) != tc.bad {
				t.Fatalf("decode error %v, want error: %v", err, tc.bad)
			}
			if !tc.bad && d.Remaining() != 0 {
				t.Fatalf("%d bytes left over", d.Remaining())
			}
		})
	}
}
