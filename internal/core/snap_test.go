package core

import (
	"reflect"
	"testing"

	"repro/internal/async"
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
