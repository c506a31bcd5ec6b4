package execpolicy

import (
	"runtime"
	"testing"
)

// withProcs runs f under a pinned GOMAXPROCS, restoring the old value —
// the policy functions read GOMAXPROCS, so every test must control it.
func withProcs(p int, f func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	f()
}

func TestDefaultWorkers(t *testing.T) {
	withProcs(3, func() {
		if w := DefaultWorkers(); w != 3 {
			t.Fatalf("DefaultWorkers at 3 CPUs = %d", w)
		}
	})
	withProcs(MaxWorkers+8, func() {
		if w := DefaultWorkers(); w != MaxWorkers {
			t.Fatalf("DefaultWorkers must cap at MaxWorkers, got %d", w)
		}
	})
}

func TestValidateWorkers(t *testing.T) {
	ValidateWorkers("engine", 1) // must not panic
	for _, k := range []int{0, -2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ValidateWorkers(%d) should panic", k)
				}
			}()
			ValidateWorkers("engine", k)
		}()
	}
}

func TestAutoWorkers(t *testing.T) {
	withProcs(2, func() {
		if w := AutoWorkers(8); w != 2 {
			t.Fatalf("AutoWorkers must clamp an oversubscribed pool to GOMAXPROCS, got %d", w)
		}
		if w := AutoWorkers(1); w != 1 {
			t.Fatalf("AutoWorkers(1) = %d", w)
		}
	})
}

func TestAsyncAuto(t *testing.T) {
	withProcs(4, func() {
		cases := []struct {
			name      string
			workers   int
			links     int
			lookahead float64
			cloneable bool
			want      AsyncChoice
		}{
			{"one worker", 1, AutoMultiLinks, 1, true, AsyncSerial},
			{"small graph", 4, AutoMultiLinks - 1, 1, true, AsyncSerial},
			{"wide lookahead", 4, AutoMultiLinks, AutoMinLookahead, true, AsyncWindows},
			{"tiny lookahead, cloneable", 4, AutoMultiLinks, AutoMinLookahead / 2, true, AsyncSerial},
			{"tiny lookahead, opaque state", 4, AutoMultiLinks, AutoMinLookahead / 2, false, AsyncSerial},
		}
		for _, c := range cases {
			if got := AsyncAuto(c.workers, c.links, c.lookahead, c.cloneable); got != c.want {
				t.Errorf("%s: AsyncAuto = %v, want %v", c.name, got, c.want)
			}
		}
	})
	// The clamp applies inside Auto too: a big configured pool on one CPU
	// must not volunteer parallelism.
	withProcs(1, func() {
		if got := AsyncAuto(8, AutoMultiLinks, 1, true); got != AsyncSerial {
			t.Fatalf("AsyncAuto on 1 CPU = %v, want AsyncSerial", got)
		}
	})
}

// TestHugeGraphGate pins the huge-graph Auto thresholds and the gate's
// shape: drifting either constant or the lookahead×links product test
// changes which mode million-link benchmarks silently run under.
func TestHugeGraphGate(t *testing.T) {
	if AutoHugeLinks != 1<<21 {
		t.Fatalf("AutoHugeLinks drifted to %d", AutoHugeLinks)
	}
	if AutoHugeEventsPerWindow != 4096 {
		t.Fatalf("AutoHugeEventsPerWindow drifted to %d", AutoHugeEventsPerWindow)
	}
	withProcs(4, func() {
		tiny := AutoMinLookahead / 2 // below the ordinary windowed gate
		cases := []struct {
			name      string
			links     int
			lookahead float64
			cloneable bool
			want      AsyncChoice
		}{
			// At the huge threshold, tiny lookahead × 2^21 links = 2^12
			// expected events — exactly the gate.
			{"huge graph, product at gate", AutoHugeLinks, tiny, false, AsyncWindows},
			{"huge graph, product below gate", AutoHugeLinks, tiny / 2, false, AsyncSerial},
			{"huge graph, product below gate, cloneable", AutoHugeLinks, tiny / 2, true, AsyncSerial},
			{"just under huge", AutoHugeLinks - 1, tiny, false, AsyncSerial},
			{"just under huge, cloneable", AutoHugeLinks - 1, tiny, true, AsyncSerial},
		}
		for _, c := range cases {
			if got := AsyncAuto(4, c.links, c.lookahead, c.cloneable); got != c.want {
				t.Errorf("%s: AsyncAuto = %v, want %v", c.name, got, c.want)
			}
		}
	})
}

// TestAsyncAutoBenchmarkShapes pins Auto's choice on the end-to-end
// benchmark's four workloads (perfbench, GOMAXPROCS 2) by their directed
// link counts and adversary lookahead: SeededRandom declares 2^-20,
// Fixed{1} declares 1. Auto is handed a cloneable stack, as the
// synchronizer's Mux once advertised, and must still not pick AsyncSpec.
func TestAsyncAutoBenchmarkShapes(t *testing.T) {
	const random = 1.0 / (1 << 20)
	withProcs(2, func() {
		cases := []struct {
			name      string
			links     int
			lookahead float64
			want      AsyncChoice
		}{
			{"sync-bfs-grid grid:32x32", 3968, random, AsyncSerial},
			{"sync-mst-pa pa:n=400,m=3", 2388, random, AsyncSerial},
			{"alpha-bfs-grid3d grid3d:12x12x12 Fixed{1}", 9504, 1, AsyncWindows},
			{"sync-leader-er er:n=128,m=2100", 4200, random, AsyncSerial},
		}
		for _, c := range cases {
			if got := AsyncAuto(2, c.links, c.lookahead, true); got != c.want {
				t.Errorf("%s: AsyncAuto = %v, want %v", c.name, got, c.want)
			}
		}
	})
}

func TestLockstepMulti(t *testing.T) {
	withProcs(4, func() {
		if !LockstepMulti(4, AutoMultiNodes) {
			t.Fatal("big graph with a real pool should go parallel")
		}
		if LockstepMulti(4, AutoMultiNodes-1) {
			t.Fatal("small graph should stay serial")
		}
		if LockstepMulti(1, AutoMultiNodes) {
			t.Fatal("one worker should stay serial")
		}
	})
	withProcs(1, func() {
		if LockstepMulti(8, AutoMultiNodes) {
			t.Fatal("oversubscribed pool on 1 CPU should stay serial in Auto")
		}
	})
}

func TestAutoShards(t *testing.T) {
	cases := []struct {
		procs, links, want int
	}{
		{8, 0, 1},
		{8, AutoShardLinks - 1, 1},                   // below the gate: never shard
		{8, AutoShardLinks, 2},                       // at the gate: 4M links = 2 shards
		{8, 4 * AutoShardLinksPerShard, 4},           // grows with the graph
		{2, 8 * AutoShardLinksPerShard, 2},           // clamped to processors
		{64, 64 * AutoShardLinksPerShard, MaxShards}, // clamped to the process cap
		{1, 1 << 30, 1},                              // single core: sharding never wins
	}
	for _, c := range cases {
		if got := AutoShards(c.procs, c.links); got != c.want {
			t.Errorf("AutoShards(procs=%d, links=%d) = %d, want %d", c.procs, c.links, got, c.want)
		}
	}
}
