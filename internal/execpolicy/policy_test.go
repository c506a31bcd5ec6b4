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
}

// TestAsyncAuto pins the retained shim: whatever the pool, graph size,
// lookahead or handler stack, Auto answers AsyncSerial — the engine's only
// in-process executor — so perfbench's executor line stays true.
func TestAsyncAuto(t *testing.T) {
	withProcs(4, func() {
		for _, workers := range []int{1, 2, 16} {
			for _, links := range []int{0, 4096, 1 << 21, 1 << 24} {
				for _, lookahead := range []float64{1.0 / (1 << 20), 1.0 / 256, 1} {
					for _, cloneable := range []bool{false, true} {
						if got := AsyncAuto(workers, links, lookahead, cloneable); got != AsyncSerial {
							t.Fatalf("AsyncAuto(%d, %d, %g, %v) = %v, want AsyncSerial",
								workers, links, lookahead, cloneable, got)
						}
					}
				}
			}
		}
	})
}

// TestAsyncAutoBenchmarkShapes pins Auto's choice on the end-to-end
// benchmark's four workloads (perfbench, GOMAXPROCS 2) by their directed
// link counts and adversary lookahead: SeededRandom declares 2^-20,
// Fixed{1} declares 1. All four run serial.
func TestAsyncAutoBenchmarkShapes(t *testing.T) {
	const random = 1.0 / (1 << 20)
	withProcs(2, func() {
		cases := []struct {
			name      string
			links     int
			lookahead float64
		}{
			{"sync-bfs-grid grid:32x32", 3968, random},
			{"sync-mst-pa pa:n=400,m=3", 2388, random},
			{"alpha-bfs-grid3d grid3d:12x12x12 Fixed{1}", 9504, 1},
			{"sync-leader-er er:n=128,m=2100", 4200, random},
		}
		for _, c := range cases {
			if got := AsyncAuto(DefaultWorkers(), c.links, c.lookahead, true); got != AsyncSerial {
				t.Errorf("%s: AsyncAuto = %v, want AsyncSerial", c.name, got)
			}
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
