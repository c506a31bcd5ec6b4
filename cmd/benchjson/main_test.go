package main

import "testing"

func TestInferMode(t *testing.T) {
	cases := []struct {
		name   string
		mode   string
		shards int
	}{
		// In-process runs are all the serial engine: names that mention
		// the removed modes, or a graph spec, stay default.
		{"BenchmarkSimFloodRandomModes/single", "default", 0},
		{"BenchmarkSimFloodRandomModes/multi", "default", 0},
		{"BenchmarkMultiSourceBFS", "default", 0},
		{"BenchmarkFromSpecGrid3D", "default", 0},
		{"BenchmarkSimFlood", "default", 0},
		// The sharded runs: a shards=K segment anywhere in the path marks
		// the run, whatever the graph-spec label before it says.
		{"BenchmarkShardSweep/spec=grid3d:100x100x100/shards=1", "shard", 1},
		{"BenchmarkShardSweep/spec=grid3d:100x100x100/shards=8", "shard", 8},
		{"BenchmarkShardSweep/spec=pa:n=1000,m=2,seed=3/shards=2", "shard", 2},
		{"BenchmarkCoordinator/shard", "shard", 0},
		// Malformed counts are no shard run.
		{"BenchmarkX/shards=zero", "default", 0},
		{"BenchmarkX/shards=-2", "default", 0},
	}
	for _, c := range cases {
		mode, shards := inferMode(c.name)
		if mode != c.mode || shards != c.shards {
			t.Errorf("inferMode(%q) = (%q, %d), want (%q, %d)", c.name, mode, shards, c.mode, c.shards)
		}
	}
}

func TestParseLineShard(t *testing.T) {
	line := "BenchmarkShardSweep/spec=grid3d:100x100x100/shards=4-8  1  1234567 ns/op  12.5 events/µs  300 windows  4500 commNs/win"
	b, ok := parseLine(line)
	if !ok {
		t.Fatal("parseLine rejected a well-formed shard sweep line")
	}
	if b.Name != "BenchmarkShardSweep/spec=grid3d:100x100x100/shards=4" {
		t.Errorf("Name = %q (GOMAXPROCS suffix not stripped?)", b.Name)
	}
	if b.Mode != "shard" || b.Shards != 4 {
		t.Errorf("Mode/Shards = %q/%d, want shard/4", b.Mode, b.Shards)
	}
	if b.Gomaxprocs != 8 {
		t.Errorf("Gomaxprocs = %d, want 8", b.Gomaxprocs)
	}
	if b.NsPerOp != 1234567 {
		t.Errorf("NsPerOp = %v", b.NsPerOp)
	}
	for unit, want := range map[string]float64{"events/µs": 12.5, "windows": 300, "commNs/win": 4500} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("Metrics[%q] = %v, want %v", unit, got, want)
		}
	}
}
