// Command asyncbfs runs the complete asynchronous BFS (Theorems 4.23/4.24)
// on a chosen topology and prints per-node distances plus the run's
// measured complexity.
//
// Usage:
//
//	asyncbfs -graph grid -rows 6 -cols 8 -sources 0,47 -seed 3
//	asyncbfs -graph cycle -n 64
//	asyncbfs -graph er -n 80 -m 240
//	asyncbfs -graph grid3d:215x215x215 -quiet   # spec form; ~10M nodes
//
// A -graph value containing ':' is parsed as a graph.FromSpec string
// (grid3d:XxYxZ, pa:n=…,m=…,seed=…, ring:k=…,c=…, and the classic
// families), which reaches the implicit CSR generators sized for
// ten-million-node runs. The header's exact-diameter column is computed
// only for graphs small enough for its O(n·m) sweep; huge graphs print
// D=- instead of stalling before the run starts.
//
// -shards K (K > 0) runs the multi-process sharded engine instead: K
// worker processes (re-execs of this binary) compute multi-source BFS hop
// distances by monotone relaxation under the same seeded delay adversary.
// That is a different algorithm from the default run's synchronizer-stack
// BFS — it reports exact distances but no parent/threshold structure, and
// its message count is the relaxation volume, not Theorem 4.23's — so the
// two modes print distances that agree while the rest of the summary
// differs by design.
//
// Sharded runs checkpoint and resume: -snapshot-every N -snapshot-path F
// writes a consistent distributed snapshot every N executed events, and
// -resume F continues a checkpointed run — at the same shard count or any
// other (-shards applies to the resumed run; the graph, adversary, fault
// schedule, and sources come from the file).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	dsync "repro"
	"repro/internal/apps"
	"repro/internal/shard"
)

func main() {
	shard.MaybeWorker() // -shards worker re-execs never return from this
	os.Exit(run())
}

func run() int {
	var (
		kind    = flag.String("graph", "grid", "topology: path|cycle|grid|er|tree, or a spec like grid3d:100x100x100")
		n       = flag.Int("n", 36, "node count (path/cycle/er/tree)")
		m       = flag.Int("m", 0, "edge count (er; default 3n)")
		rows    = flag.Int("rows", 6, "grid rows")
		cols    = flag.Int("cols", 6, "grid cols")
		seed    = flag.Uint64("seed", 1, "delay adversary seed")
		sources = flag.String("sources", "0", "comma-separated source IDs")
		quiet   = flag.Bool("quiet", false, "suppress per-node output")
		shards  = flag.Int("shards", 0, "run multi-source BFS on K sharded worker processes instead of the synchronizer stack (0 = off)")
		faults  = flag.String("faults", "", "fault schedule (e.g. drop:p=0.05,budget=3,seed=7); empty = fault-free")
		snapN   = flag.Uint64("snapshot-every", 0, "with -shards: checkpoint the run every N executed events (requires -snapshot-path)")
		snapP   = flag.String("snapshot-path", "", "checkpoint file the sharded run writes (atomically replaced at each checkpoint)")
		resume  = flag.String("resume", "", "resume a sharded run from a checkpoint file; graph/workload identity comes from the file, -shards stays yours")
	)
	flag.Parse()
	g, err := buildGraph(*kind, *n, *m, *rows, *cols, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	srcs, err := parseSources(*sources, g.N())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fs, err := dsync.ParseFaultSpec(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *resume != "" {
		return runResumed(*resume, *shards, *snapN, *snapP, *quiet)
	}
	if (*snapN > 0 || *snapP != "") && *shards <= 0 {
		fmt.Fprintln(os.Stderr, "-snapshot-every/-snapshot-path checkpoint the sharded engine; add -shards K")
		return 2
	}
	if *shards > 0 {
		return runSharded(g, *kind, *n, *m, *rows, *cols, *seed, srcs, *shards, *quiet, *faults, *snapN, *snapP)
	}
	res := dsync.AsyncBFS(g, srcs, dsync.WithFaults(dsync.RandomDelays(*seed), fs))
	// The exact diameter is an O(n·m) all-pairs sweep — a header nicety on
	// small graphs, hours of preamble on ten million nodes. Skip it there.
	diam := "-"
	if g.N() <= maxDiameterNodes {
		diam = strconv.Itoa(g.Diameter())
	}
	fmt.Printf("graph=%s n=%d m=%d D=%s sources=%v\n", *kind, g.N(), g.M(), diam, srcs)
	fmt.Printf("iterations=%d final-threshold=%d time=%.1f msgs=%d\n",
		res.Iterations, res.FinalThreshold, res.Time, res.Msgs)
	if *quiet {
		return 0
	}
	for v := 0; v < g.N(); v++ {
		switch o := res.Outputs[dsync.NodeID(v)].(type) {
		case apps.TBFSResult:
			fmt.Printf("node %3d: dist=%d parent=%d source=%d\n", v, o.Dist, o.Parent, o.Source)
		case apps.TBFSSourceDone:
			fmt.Printf("node %3d: source (dist=0)\n", v)
		default:
			fmt.Printf("node %3d: %v\n", v, o)
		}
	}
	return 0
}

// maxDiameterNodes bounds the graphs whose exact diameter the header
// reports; above it the O(n·m) sweep would dwarf the BFS being measured.
const maxDiameterNodes = 1 << 14

// runSharded computes the distances on K worker processes via the
// shard coordinator's monotone-relaxation BFS workload.
func runSharded(g *dsync.Graph, kind string, n, m, rows, cols int, seed uint64, srcs []dsync.NodeID, k int, quiet bool, faults string, snapN uint64, snapP string) int {
	spec, err := specFor(kind, n, m, rows, cols, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rep, err := shard.Run(shard.Config{
		GraphSpec:     spec,
		Workload:      "bfs",
		Adversary:     fmt.Sprintf("random:%d", seed),
		Faults:        faults,
		Sources:       srcs,
		Shards:        k,
		Launch:        shard.LaunchProcess,
		SnapshotEvery: snapN,
		SnapshotPath:  snapP,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res := rep.Result
	fmt.Printf("graph=%s n=%d m=%d sources=%v shards=%d cuts=%v\n", spec, g.N(), g.M(), srcs, rep.Stats.Shards, rep.Cuts)
	fmt.Printf("time=%.1f msgs=%d windows=%d frames=%d (relaxation BFS: distances only)\n",
		res.Time, res.Msgs, rep.Stats.Windows, rep.Stats.Frames)
	if quiet {
		return 0
	}
	for v := 0; v < g.N(); v++ {
		if d, ok := res.Outputs[dsync.NodeID(v)].(int64); ok {
			fmt.Printf("node %3d: dist=%d\n", v, d)
		} else {
			fmt.Printf("node %3d: unreached\n", v)
		}
	}
	return 0
}

// runResumed continues a checkpointed sharded run. The checkpoint file
// carries the workload identity (graph, adversary, faults, sources), so
// the topology flags are ignored; -shards picks the resumed shard count,
// which may differ from the checkpoint's.
func runResumed(path string, k int, snapN uint64, snapP string, quiet bool) int {
	rep, err := shard.Run(shard.Config{
		ResumeFrom:    path,
		Shards:        k,
		Launch:        shard.LaunchProcess,
		SnapshotEvery: snapN,
		SnapshotPath:  snapP,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res := rep.Result
	fmt.Printf("resumed=%s shards=%d cuts=%v\n", path, rep.Stats.Shards, rep.Cuts)
	fmt.Printf("time=%.1f msgs=%d windows=%d frames=%d (relaxation BFS: distances only)\n",
		res.Time, res.Msgs, rep.Stats.Windows, rep.Stats.Frames)
	if quiet {
		return 0
	}
	ids := make([]int, 0, len(res.Outputs))
	for v := range res.Outputs {
		ids = append(ids, int(v))
	}
	sort.Ints(ids)
	for _, v := range ids {
		fmt.Printf("node %3d: dist=%v\n", v, res.Outputs[dsync.NodeID(v)])
	}
	return 0
}

// specFor maps the classic flag form onto its graph.FromSpec equivalent,
// the shape worker processes rebuild the graph from.
func specFor(kind string, n, m, rows, cols int, seed uint64) (string, error) {
	if strings.Contains(kind, ":") {
		return kind, nil
	}
	switch kind {
	case "path", "cycle", "tree":
		return fmt.Sprintf("%s:%d", kind, n), nil
	case "grid":
		return fmt.Sprintf("grid:%dx%d", rows, cols), nil
	case "er":
		if m == 0 {
			m = 3 * n
		}
		return fmt.Sprintf("er:n=%d,m=%d,seed=%d", n, m, seed), nil
	default:
		return "", fmt.Errorf("unknown graph kind %q", kind)
	}
}

func buildGraph(kind string, n, m, rows, cols int, seed uint64) (*dsync.Graph, error) {
	if strings.Contains(kind, ":") {
		return dsync.GraphFromSpec(kind)
	}
	switch kind {
	case "path":
		return dsync.Path(n), nil
	case "cycle":
		return dsync.Cycle(n), nil
	case "grid":
		return dsync.Grid(rows, cols), nil
	case "tree":
		return dsync.CompleteBinaryTree(n), nil
	case "er":
		if m == 0 {
			m = 3 * n
		}
		return dsync.RandomConnected(n, m, seed), nil
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}

func parseSources(s string, n int) ([]dsync.NodeID, error) {
	var out []dsync.NodeID
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 || v >= n {
			return nil, fmt.Errorf("bad source %q (need 0..%d)", part, n-1)
		}
		out = append(out, dsync.NodeID(v))
	}
	return out, nil
}
