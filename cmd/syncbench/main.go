// Command syncbench regenerates the experiment tables of EXPERIMENTS.md.
//
// Usage:
//
//	syncbench                      # run every experiment
//	syncbench -exp E5              # run one experiment (E1..E18, no E13..E15)
//	syncbench -exp E2,E3,E4        # run a subset, in the given order
//	syncbench -list                # list experiment ids and titles
//	syncbench -parallel 8          # run independent trials on 8 workers
//	syncbench -json                # emit structured JSON records
//	syncbench -exp E16,E17,E18 -json   # the CI JSON smoke run
//	syncbench -seed 42             # override every adversary seed
//	syncbench -exp E16 -graph grid3d:100x100x100   # add a million-node row
//	syncbench -exp E17 -faults crash:p=0.01,drop:p=0.05,budget=3,seed=7
//	syncbench -exp E18 -snapshot-every 100000  # extra checkpoint-interval row
//	syncbench -exp E18 -resume run.ckpt        # price restoring a real checkpoint
//
// Tables are byte-identical for any -parallel value; -json replaces the
// tables with one syncbench/v1 JSON document of per-row records. -seed 0
// (the default) keeps the per-experiment seeds that reproduce the
// published tables; any other value sweeps every seeded adversary,
// matching what cmd/synchronize's -seed flag does there.
//
// -graph takes a graph.FromSpec string (grid3d:XxYxZ, pa:n=…,m=…,
// ring:k=…,c=…, and the classic families) and appends it as an extra row
// to E16 and E18; other experiments ignore it. The implicit generators build sorted CSR directly, so a
// ten-million-node spec is a few hundred megabytes, not a hash-map blowup.
//
// -faults takes a fault-schedule spec (async.ParseFaultSpec form:
// crash:p=…, drop:p=…, link:p=…, budget=…, backoff=…, epoch=…, seed=…)
// and wraps every experiment's delay adversary in it — the tables then
// measure behavior under deterministic message loss and crash blackouts
// instead of the published fault-free shapes. E17 additionally appends
// the spec as an extra row after its built-in schedule grid.
//
// -snapshot-every appends an extra checkpoint interval to E18's sweep, and
// -resume points E18 at a checkpoint file written by a sharded run
// (shardsim/asyncbfs -snapshot-path), adding a row that prices a full
// restore-to-completion; both are validated before any experiment runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "", "comma-separated experiment ids (E1..E18, no E13..E15); empty = all")
	parallel := flag.Int("parallel", 1, "worker-pool size for independent trials (1 = serial)")
	jsonOut := flag.Bool("json", false, "emit structured JSON records instead of text tables")
	list := flag.Bool("list", false, "list experiment ids and titles, then exit")
	seed := flag.Uint64("seed", 0, "delay adversary seed; 0 keeps each experiment's default")
	graphSpec := flag.String("graph", "", "extra topology for E16/E18, as a graph spec (e.g. grid3d:100x100x100)")
	faults := flag.String("faults", "", "fault schedule wrapped around every adversary (e.g. crash:p=0.01,drop:p=0.05,budget=3,seed=7); empty = fault-free")
	snapEvery := flag.Uint64("snapshot-every", 0, "extra checkpoint interval for E18's sweep (0 = built-ins only)")
	resume := flag.String("resume", "", "checkpoint file for E18's restore-to-completion row (from shardsim/asyncbfs -snapshot-path)")
	flag.Parse()
	if *list {
		for _, info := range bench.List() {
			fmt.Printf("%-4s %s\n", info.ID, info.Title)
		}
		return 0
	}
	var ids []string
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	opts := bench.Options{Workers: *parallel, JSON: *jsonOut, Seed: *seed, Graph: *graphSpec, Faults: *faults, SnapshotEvery: *snapEvery, Resume: *resume}
	if err := bench.Run(os.Stdout, ids, opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return 0
}
