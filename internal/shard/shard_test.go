package shard

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
)

func TestMain(m *testing.M) {
	// Process-launch tests re-exec this test binary as their workers;
	// MaybeWorker turns those children into shard workers and never
	// returns in them.
	MaybeWorker()
	os.Exit(m.Run())
}

// serialRun executes cfg's workload through the single-process serial
// engine — the byte-identity reference every sharded run is held to.
func serialRun(t testing.TB, cfg Config) async.Result {
	t.Helper()
	g, err := graph.FromSpec(cfg.GraphSpec)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := ParseAdversary(cfg.Adversary)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := async.ParseFaultSpec(cfg.Faults)
	if err != nil {
		t.Fatal(err)
	}
	adv = async.WithFaults(adv, fs)
	mk, err := NewWorkload(cfg.Workload, WorkloadConfig{Sources: cfg.Sources, SegWords: cfg.SegWords})
	if err != nil {
		t.Fatal(err)
	}
	sim := async.New(g, adv, mk)
	if cfg.KeepTrace {
		sim.KeepTrace()
	}
	return sim.Run()
}

// compareResults diffs field by field so a mismatch names what diverged
// instead of dumping two multi-screen structs.
func compareResults(t *testing.T, got, want async.Result) {
	t.Helper()
	if got.Time != want.Time {
		t.Errorf("Time = %v, want %v", got.Time, want.Time)
	}
	if got.QuiesceTime != want.QuiesceTime {
		t.Errorf("QuiesceTime = %v, want %v", got.QuiesceTime, want.QuiesceTime)
	}
	if got.Msgs != want.Msgs {
		t.Errorf("Msgs = %d, want %d", got.Msgs, want.Msgs)
	}
	if got.Acks != want.Acks {
		t.Errorf("Acks = %d, want %d", got.Acks, want.Acks)
	}
	if got.Dropped != want.Dropped || got.Retrans != want.Retrans || got.Undeliverable != want.Undeliverable {
		t.Errorf("fault counters = %d/%d/%d, want %d/%d/%d (dropped/retrans/undeliverable)",
			got.Dropped, got.Retrans, got.Undeliverable,
			want.Dropped, want.Retrans, want.Undeliverable)
	}
	if !reflect.DeepEqual(got.PerProto, want.PerProto) {
		t.Errorf("PerProto = %v, want %v", got.PerProto, want.PerProto)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Errorf("Outputs diverge: %d entries vs %d", len(got.Outputs), len(want.Outputs))
		for id, w := range want.Outputs {
			if g, ok := got.Outputs[id]; !ok || !reflect.DeepEqual(g, w) {
				t.Errorf("  node %d: got %v (%T), want %v (%T)", id, g, g, w, w)
			}
		}
		for id := range got.Outputs {
			if _, ok := want.Outputs[id]; !ok {
				t.Errorf("  node %d: extra output %v", id, got.Outputs[id])
			}
		}
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("Trace length %d, want %d", len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if !reflect.DeepEqual(got.Trace[i], want.Trace[i]) {
			t.Fatalf("Trace[%d] = %+v, want %+v", i, got.Trace[i], want.Trace[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results differ outside the named fields: %+v vs %+v", got, want)
	}
}

// TestShardMatrix is the byte-identity matrix: adversaries × graphs ×
// seeds × shard counts, every sharded run (in-process workers over real
// unix sockets) compared DeepEqual — outputs, counters, PerProto, and the
// full delivery trace — against the serial engine.
func TestShardMatrix(t *testing.T) {
	graphs := []struct {
		spec string
		n    int
	}{
		{"grid3d:5x5x5", 125},
		{"grid:10x10", 100},
		{"pa:n=200,m=2,seed=5", 200},
		{"ring:k=8,c=4", 32},
	}
	advs := []string{"fixed:0.5", "skew:cut=60,fast=0.25", "random:%d", "flaky:%d", "edge:%d"}
	seeds := []uint64{3, 17}
	for _, gr := range graphs {
		for _, advT := range advs {
			for _, seed := range seeds {
				adv := advT
				if strings.Contains(advT, "%d") {
					adv = fmt.Sprintf(advT, seed)
				}
				// The seed also varies the source set, so the unseeded
				// adversaries get two distinct runs too.
				sources := []graph.NodeID{0}
				if seed == 17 {
					sources = []graph.NodeID{0, graph.NodeID(gr.n - 1)}
				}
				cfg := Config{
					GraphSpec: gr.spec,
					Workload:  "flood",
					Adversary: adv,
					Sources:   sources,
					KeepTrace: true,
				}
				want := serialRun(t, cfg)
				for _, k := range []int{1, 2, 4} {
					cfg := cfg
					cfg.Shards = k
					t.Run(fmt.Sprintf("%s/%s/seed=%d/k=%d", gr.spec, adv, seed, k), func(t *testing.T) {
						rep, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						compareResults(t, rep.Result, want)
						if rep.Stats.Shards != k {
							t.Errorf("Stats.Shards = %d, want %d", rep.Stats.Shards, k)
						}
						if k > 1 && rep.Stats.Frames == 0 {
							t.Errorf("no cross-shard frames on a %d-way run", k)
						}
					})
				}
			}
		}
	}
}

// TestShardBFS covers the monotone-relaxation workload, whose nodes
// output repeatedly (only the final value survives) and whose message
// volume depends on delivery order — still byte-identical when sharded.
func TestShardBFS(t *testing.T) {
	for _, spec := range []string{"grid3d:5x5x5", "pa:n=200,m=2,seed=5"} {
		cfg := Config{
			GraphSpec: spec,
			Workload:  "bfs",
			Adversary: "random:9",
			KeepTrace: true,
		}
		want := serialRun(t, cfg)
		for _, k := range []int{2, 4} {
			cfg := cfg
			cfg.Shards = k
			t.Run(fmt.Sprintf("%s/k=%d", spec, k), func(t *testing.T) {
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, rep.Result, want)
			})
		}
	}
}

// TestShardSegTransport pushes arena segments across shard boundaries:
// every message carries a pattern-filled segment that the receiver
// verifies word-for-word inside the delivery callback, so any re-homing
// bug panics the worker. Traces are excluded (segment handles are
// arena-local, the documented caveat); everything else must match, and
// Run itself fails if any worker's arena has live segments at the end.
func TestShardSegTransport(t *testing.T) {
	cases := []struct {
		spec  string
		words int
	}{
		{"grid:8x8", 96},
		{"grid3d:4x4x4", 7},
		// One segment spanning multiple arena chunks (chunk = 1<<16 words).
		{"cycle:6", 70000},
	}
	for _, c := range cases {
		cfg := Config{
			GraphSpec: c.spec,
			Workload:  "segflood",
			Adversary: "random:5",
			SegWords:  c.words,
		}
		want := serialRun(t, cfg)
		for _, k := range []int{2, 4} {
			cfg := cfg
			cfg.Shards = k
			t.Run(fmt.Sprintf("%s/words=%d/k=%d", c.spec, c.words, k), func(t *testing.T) {
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, rep.Result, want)
			})
		}
	}
}

// TestShardProcess runs real worker processes (re-execs of this test
// binary) end to end, including the settled-heap self-reports and the
// per-process ceiling check.
func TestShardProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := Config{
		GraphSpec: "grid3d:6x6x6",
		Workload:  "flood",
		Adversary: "fixed:0.5",
		Shards:    2,
		KeepTrace: true,
		Launch:    LaunchProcess,
		CeilingMB: 1024,
	}
	want := serialRun(t, cfg)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, rep.Result, want)
	if rep.Stats.Windows == 0 || rep.Stats.StartupNs <= 0 {
		t.Errorf("implausible stats: %+v", rep.Stats)
	}
	for i, si := range rep.Shards {
		if si.GraphBytes <= 0 || si.Nodes <= 0 {
			t.Errorf("shard %d self-report implausible: %+v", i, si)
		}
		if si.HeapMB <= 0 {
			t.Errorf("shard %d reported no settled heap (process workers must probe)", i)
		}
	}
}

// TestShardConfigErrors pins the sanity checks that run before any
// process is spawned.
func TestShardConfigErrors(t *testing.T) {
	base := Config{GraphSpec: "grid:4x4", Workload: "flood", Adversary: "fixed:0.5"}
	for name, mutate := range map[string]func(*Config){
		"no graph":        func(c *Config) { c.GraphSpec = "" },
		"bad spec":        func(c *Config) { c.GraphSpec = "nope:3" },
		"bad workload":    func(c *Config) { c.Workload = "nope" },
		"bad adversary":   func(c *Config) { c.Adversary = "nope:1" },
		"negative shards": func(c *Config) { c.Shards = -1 },
		"process w/o spec": func(c *Config) {
			c.GraphSpec = ""
			g, _ := graph.FromSpec("grid:4x4")
			c.Graph = g
			c.Launch = LaunchProcess
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := base
			mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

// TestShardAuto exercises the Shards=0 path (execpolicy.AutoShards keeps
// small graphs unsharded) and oversized K (clamped to n).
func TestShardAuto(t *testing.T) {
	cfg := Config{GraphSpec: "grid:6x6", Workload: "flood", Adversary: "fixed:0.5", KeepTrace: true}
	want := serialRun(t, cfg)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Shards != 1 {
		t.Errorf("auto sharded a %d-link toy graph %d ways", 36, rep.Stats.Shards)
	}
	compareResults(t, rep.Result, want)

	cfg.GraphSpec = "cycle:5"
	cfg.Shards = 64
	want = serialRun(t, cfg)
	rep, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Shards > 5 {
		t.Errorf("K=%d exceeds the 5-node graph", rep.Stats.Shards)
	}
	compareResults(t, rep.Result, want)
}

// TestShardFaultMatrix extends the byte-identity matrix to the fault
// plane: fault schedules × graphs × shard counts, every sharded run
// compared field-for-field (counters, outputs, full trace including
// Undeliverable entries) against the serial engine with the identical
// schedule. Fault decisions are pure functions of (seed, endpoints,
// txSeq, epoch), so shard boundaries must not shift a single drop.
func TestShardFaultMatrix(t *testing.T) {
	faults := []string{
		"drop:p=0.1,budget=3,seed=5",
		"drop:p=0.3,budget=0,seed=9",
		"crash:p=0.02,drop:p=0.05,budget=2,seed=7",
		"link:p=0.05,budget=2,seed=11",
	}
	graphs := []string{"grid:10x10", "pa:n=150,m=2,seed=5", "ring:k=8,c=4"}
	for _, spec := range faults {
		for _, gr := range graphs {
			cfg := Config{
				GraphSpec: gr,
				Workload:  "flood",
				Adversary: "random:13",
				Faults:    spec,
				KeepTrace: true,
			}
			want := serialRun(t, cfg)
			for _, k := range []int{1, 2, 4} {
				cfg := cfg
				cfg.Shards = k
				t.Run(fmt.Sprintf("%s/%s/k=%d", gr, spec, k), func(t *testing.T) {
					rep, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, rep.Result, want)
					if rep.Result.Dropped != rep.Result.Retrans+rep.Result.Undeliverable {
						t.Errorf("dropped %d != retrans %d + undeliverable %d",
							rep.Result.Dropped, rep.Result.Retrans, rep.Result.Undeliverable)
					}
				})
			}
			if want.Dropped == 0 {
				t.Errorf("%s on %s dropped nothing — matrix row is vacuous", spec, gr)
			}
		}
	}
}

// TestShardFaultProcess is the end-to-end cross-process check: real
// worker processes under a combined crash+drop schedule, byte-identical
// to serial. The fault counters and trace Kind bytes travel the RESULT
// wire protocol, so this also pins their serialization.
func TestShardFaultProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := Config{
		GraphSpec: "grid3d:5x5x5",
		Workload:  "flood",
		Adversary: "skew:cut=60,fast=0.25",
		Faults:    "crash:p=0.01,drop:p=0.1,budget=2,seed=3",
		Shards:    2,
		KeepTrace: true,
		Launch:    LaunchProcess,
		CeilingMB: 1024,
	}
	want := serialRun(t, cfg)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, rep.Result, want)
	if want.Dropped == 0 {
		t.Error("process fault run dropped nothing — check the schedule")
	}
}

// TestShardFaultConfigError pins Run's early validation of the fault
// spec string.
func TestShardFaultConfigError(t *testing.T) {
	cfg := Config{GraphSpec: "grid:4x4", Workload: "flood", Adversary: "fixed:0.5", Faults: "drop:p=2"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
}
