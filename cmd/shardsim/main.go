// Command shardsim runs one workload across K node-partitioned engine
// processes — the multi-process sharded executor — and reports the merged
// result plus the coordinator's per-window time ledger.
//
// Usage:
//
//	shardsim -graph grid3d:100x100x100 -shards 2 -workload flood
//	shardsim -graph pa:n=200000,m=3,seed=7 -shards 4 -workload bfs -adv random:9
//	shardsim -graph grid3d:32x32x32 -shards 2 -verify     # compare vs serial
//	shardsim -graph grid3d:100x100x100 -shards 2 -ceiling-mb 1024
//	shardsim -graph grid3d:32x32x32 -shards 2 -faults drop:p=0.05,budget=3,seed=7 -verify
//	shardsim -graph grid:200x200 -shards 2 -snapshot-every 50000 -snapshot-path run.ckpt
//	shardsim -resume run.ckpt -shards 4    # continue at a different K
//
// Workers are re-execs of this binary: the coordinator spawns K copies
// with REPRO_SHARD_SOCKET/REPRO_SHARD_INDEX set (plus a cosmetic
// -shard-worker argv so ps identifies them), each builds the graph from
// the same spec string, carves its contiguous node range, and serves the
// bounded-lag window protocol over a unix socket. Results — outputs,
// message counts, per-protocol totals, delivery traces — are byte-
// identical to the single-process serial engine; -verify re-runs the
// workload serially and enforces exactly that. -ceiling-mb fails the run
// if any worker's settled heap exceeds the bound, which is how CI holds
// the per-process memory promise. -inproc serves workers on goroutines
// over the same sockets (no processes; heap self-reports are disabled
// because the workers share one heap).
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/shard"
)

func main() {
	shard.MaybeWorker() // worker re-execs never return from this
	os.Exit(run())
}

func run() int {
	var (
		spec     = flag.String("graph", "grid3d:32x32x32", "graph spec (graph.FromSpec form, e.g. grid3d:100x100x100)")
		shards   = flag.Int("shards", 0, "worker count K; 0 picks execpolicy.AutoShards for the graph")
		workload = flag.String("workload", "flood", "workload: "+strings.Join(shard.Workloads(), "|"))
		adv      = flag.String("adv", "fixed:1", "delay adversary: fixed:<d>|random:<seed>|skew:cut=<n>,fast=<d>|flaky:<seed>|edge:<seed>")
		faults   = flag.String("faults", "", "fault schedule (e.g. crash:p=0.01,drop:p=0.05,budget=3,seed=7); empty = fault-free")
		sources  = flag.String("sources", "0", "comma-separated source node ids")
		segWords = flag.Int("seg-words", 0, "segment words per message (segflood; 0 = workload default)")
		inproc   = flag.Bool("inproc", false, "serve workers on goroutines instead of spawned processes")
		ceiling  = flag.Int64("ceiling-mb", 0, "fail if any worker's settled heap exceeds this many MB (process workers; 0 = off)")
		verify   = flag.Bool("verify", false, "also run the serial single-process engine and require byte-identical results")
		snapN    = flag.Uint64("snapshot-every", 0, "checkpoint the run every N executed events (requires -snapshot-path)")
		snapP    = flag.String("snapshot-path", "", "checkpoint file (atomically replaced at each checkpoint)")
		resume   = flag.String("resume", "", "resume from a checkpoint file; graph/workload/adversary/faults come from the file, -shards stays yours")
		_        = flag.Bool("shard-worker", false, "(internal) cosmetic marker on re-exec'd worker argv; workers are configured via environment")
	)
	flag.Parse()

	srcs, err := parseSources(*sources)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *resume != "" && *verify {
		fmt.Fprintln(os.Stderr, "-verify needs the full workload spec, which a -resume run takes from the checkpoint file; run -verify on the uninterrupted configuration instead")
		return 2
	}
	cfg := shard.Config{
		GraphSpec: *spec,
		Shards:    *shards,
		Workload:  *workload,
		Adversary: *adv,
		Faults:    *faults,
		Sources:   srcs,
		SegWords:  *segWords,
		// Traces are only needed for -verify, and segment-carrying traces
		// hold arena-local handles that never compare equal across
		// processes — the documented caveat — so they stay off for segflood.
		KeepTrace:     *verify && *workload != "segflood",
		CeilingMB:     *ceiling,
		Launch:        shard.LaunchProcess,
		WorkerArgs:    []string{"-shard-worker"},
		SnapshotEvery: *snapN,
		SnapshotPath:  *snapP,
		ResumeFrom:    *resume,
	}
	if *inproc {
		cfg.Launch = shard.LaunchInProc
	}
	rep, err := shard.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	res := rep.Result
	st := rep.Stats
	if *resume != "" {
		fmt.Printf("resumed=%s shards=%d cuts=%v crossLinks=%d\n",
			*resume, st.Shards, rep.Cuts, st.CrossLinks)
	} else {
		fmt.Printf("graph=%s workload=%s adv=%s shards=%d cuts=%v crossLinks=%d\n",
			*spec, *workload, *adv, st.Shards, rep.Cuts, st.CrossLinks)
	}
	if *faults != "" {
		fmt.Printf("faults=%s dropped=%d retrans=%d undeliverable=%d\n",
			*faults, res.Dropped, res.Retrans, res.Undeliverable)
	}
	fmt.Printf("time=%.3f quiesce=%.3f msgs=%d acks=%d events=%d outputs=%d\n",
		res.Time, res.QuiesceTime, res.Msgs, res.Acks, st.TotalEvents, len(res.Outputs))
	protos := make([]int, 0, len(res.PerProto))
	for p := range res.PerProto {
		protos = append(protos, int(p))
	}
	sort.Ints(protos)
	for _, p := range protos {
		fmt.Printf("  proto %d: %d msgs\n", p, res.PerProto[async.Proto(p)])
	}
	fmt.Printf("windows=%d frames=%d frameKB=%d\n", st.Windows, st.Frames, st.FrameBytes>>10)
	if st.Snapshots > 0 {
		fmt.Printf("snapshots=%d snapshotMs=%.1f path=%s\n", st.Snapshots, ms(st.SnapshotNs), *snapP)
	}
	fmt.Printf("startup=%.1fms worker=%.1fms comm=%.1fms merge=%.1fms", ms(st.StartupNs), ms(st.WorkerNs), ms(st.CommNs), ms(st.MergeNs))
	if st.Windows > 0 {
		fmt.Printf("  (per window: worker=%.1fµs comm=%.1fµs merge=%.1fµs)",
			us(st.WorkerNs)/float64(st.Windows), us(st.CommNs)/float64(st.Windows), us(st.MergeNs)/float64(st.Windows))
	}
	fmt.Println()
	for i, si := range rep.Shards {
		fmt.Printf("shard %d: nodes=%d links=%d boundary=%d steps=%d graphMB=%.1f", i,
			si.Nodes, si.Links, si.Boundary, si.Steps, float64(si.GraphBytes)/(1<<20))
		if si.HeapMB > 0 {
			fmt.Printf(" engineMB=%.1f heapMB=%d", float64(si.EngineBytes)/(1<<20), si.HeapMB)
		}
		fmt.Println()
	}

	if *verify {
		want, err := serialReference(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if !reflect.DeepEqual(res, want) {
			fmt.Fprintf(os.Stderr, "VERIFY FAILED: sharded result diverges from the serial engine\n"+
				"  sharded: time=%v msgs=%d acks=%d outputs=%d\n"+
				"  serial:  time=%v msgs=%d acks=%d outputs=%d\n",
				res.Time, res.Msgs, res.Acks, len(res.Outputs),
				want.Time, want.Msgs, want.Acks, len(want.Outputs))
			return 1
		}
		fmt.Println("verify: OK — byte-identical to the serial single-process engine")
	}
	return 0
}

// serialReference runs the same (graph, adversary, workload) through the
// serial engine.
func serialReference(cfg shard.Config) (async.Result, error) {
	g, err := graph.FromSpec(cfg.GraphSpec)
	if err != nil {
		return async.Result{}, err
	}
	a, err := shard.ParseAdversary(cfg.Adversary)
	if err != nil {
		return async.Result{}, err
	}
	fs, err := async.ParseFaultSpec(cfg.Faults)
	if err != nil {
		return async.Result{}, err
	}
	a = async.WithFaults(a, fs)
	mk, err := shard.NewWorkload(cfg.Workload, shard.WorkloadConfig{Sources: cfg.Sources, SegWords: cfg.SegWords})
	if err != nil {
		return async.Result{}, err
	}
	sim := async.New(g, a, mk)
	if cfg.KeepTrace {
		sim.KeepTrace()
	}
	return sim.Run(), nil
}

func parseSources(s string) ([]graph.NodeID, error) {
	var out []graph.NodeID
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad source %q", part)
		}
		out = append(out, graph.NodeID(v))
	}
	return out, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }
