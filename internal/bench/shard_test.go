package bench

import (
	"os"
	"testing"

	"repro/internal/shard"
)

func TestMain(m *testing.M) {
	// The sharded-footprint tests launch worker processes by re-execing
	// this test binary; MaybeWorker turns those children into shard
	// workers and never returns in them.
	shard.MaybeWorker()
	os.Exit(m.Run())
}

// TestFootprintPinsSharded is TestFootprintPins' multi-process companion:
// with the graph split across K worker processes, each worker's
// self-reported graph plane must still respect the per-link pin (the
// sub-CSR view carries the same tables plus one boundary flag per link),
// and each settled process heap must sit far below the smoke ceiling —
// the per-process memory promise that makes K-way sharding a footprint
// win rather than a K-fold copy.
func TestFootprintPinsSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const spec = "grid3d:32x32x32"
	rep, err := shard.Run(shard.Config{
		GraphSpec: spec,
		Workload:  "flood",
		Adversary: "fixed:1",
		Shards:    2,
		Launch:    shard.LaunchProcess,
		CeilingMB: smokeHeapCeilingMB,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := mustSpec(spec)
	if rep.Result.Msgs != uint64(g.Links()) {
		t.Errorf("sharded flood msgs = %d, want %d", rep.Result.Msgs, g.Links())
	}
	nodes := 0
	for i, si := range rep.Shards {
		nodes += si.Nodes
		if si.Links == 0 {
			t.Fatalf("shard %d reports no links", i)
		}
		perLink := float64(si.GraphBytes) / float64(si.Links)
		if perLink > pinGraphBytesPerLink*footprintHeadroom {
			t.Errorf("shard %d graph plane %.2f B/link, pin %.1f (+10%% ceiling %.1f)",
				i, perLink, pinGraphBytesPerLink, pinGraphBytesPerLink*footprintHeadroom)
		}
		if si.HeapMB <= 0 || si.HeapMB > smokeHeapCeilingMB {
			t.Errorf("shard %d settled heap %d MB outside (0, %d]", i, si.HeapMB, smokeHeapCeilingMB)
		}
	}
	if nodes != g.N() {
		t.Errorf("shards hold %d nodes, graph has %d", nodes, g.N())
	}
}
