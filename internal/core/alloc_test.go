package core

import (
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// synchronizedBFSAllocsPerMsgCeiling is the measured allocation rate of
// the synchronized BFS on grid:16x16 with protocol state laid out by
// pulse and cover tree position (1.44 allocations per delivered message),
// plus 10%. Map-keyed state in the Mux, core, registration and gather
// layers measured 3.08.
const synchronizedBFSAllocsPerMsgCeiling = 1.58

// TestSynchronizedBFSAllocsPerMessage bounds the whole synchronized run's
// heap allocations (engine, Mux, core, reg, gather, algorithm; covers
// prebuilt) per delivered message.
func TestSynchronizedBFSAllocsPerMessage(t *testing.T) {
	g, err := graph.FromSpec("grid:16x16")
	if err != nil {
		t.Fatal(err)
	}
	mk := pinBFS.prep(g)
	bound := syncrun.New(g, mk).Run().Rounds + 2
	cfg := Config{Graph: g, Bound: bound, Adversary: async.SeededRandom{Seed: 1},
		Layered: BuildLayeredFor(g, bound)}
	var msgs uint64
	allocs := testing.AllocsPerRun(3, func() { msgs = Synchronize(cfg, mk).Msgs })
	perMsg := allocs / float64(msgs)
	t.Logf("%.0f allocs over %d messages: %.3f per message", allocs, msgs, perMsg)
	if perMsg > synchronizedBFSAllocsPerMsgCeiling {
		t.Fatalf("%.3f allocations per delivered message, ceiling %.3f", perMsg, synchronizedBFSAllocsPerMsgCeiling)
	}
}

// alphaBFSAllocsPerMsgCeiling is the measured allocation rate of α BFS on
// grid3d:6x6x6 under Fixed{D:1} with the pulse API kept in the node and
// batches sorted by slices.SortFunc (0.343 allocations per delivered
// message), plus 10%. A fresh API struct and sort.Slice closure per pulse
// measured 0.589.
const alphaBFSAllocsPerMsgCeiling = 0.377

// TestAlphaBFSAllocsPerMessage bounds the α synchronizer's whole-run heap
// allocations (engine, α layer, algorithm) per delivered message on the
// shape of the alpha-bfs-grid3d benchmark: every event one unit out.
func TestAlphaBFSAllocsPerMessage(t *testing.T) {
	g, err := graph.FromSpec("grid3d:6x6x6")
	if err != nil {
		t.Fatal(err)
	}
	mk := pinBFS.prep(g)
	bound := syncrun.New(g, mk).Run().Rounds + 2
	var msgs uint64
	allocs := testing.AllocsPerRun(3, func() {
		s := async.New(g, async.Fixed{D: 1}, func(id graph.NodeID) async.Handler { return NewAlpha(mk(id), bound) })
		msgs = s.Run().Msgs
	})
	perMsg := allocs / float64(msgs)
	t.Logf("%.0f allocs over %d messages: %.3f per message", allocs, msgs, perMsg)
	if perMsg > alphaBFSAllocsPerMsgCeiling {
		t.Fatalf("%.3f allocations per delivered message, ceiling %.3f", perMsg, alphaBFSAllocsPerMsgCeiling)
	}
}
