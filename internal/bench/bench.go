// Package bench implements the experiment harness: one function per
// experiment in DESIGN.md's index (E1–E18; E13–E15 are retired), each
// regenerating its table of measured time/message complexities against
// the paper's predicted shape.
// Root bench_test.go and cmd/syncbench both call into this package.
//
// The harness is job-based: every experiment enumerates its independent
// trials (graph × parameter × adversary) as jobs, the runner executes them
// on a worker pool of Options.Workers goroutines, and results merge back in
// job order — so the emitted tables are byte-identical whether the run is
// serial or parallel. Each table row additionally produces a structured
// record; Options.JSON switches the output to one JSON document carrying
// every record, which is what cmd/syncbench -json emits and CI archives as
// the bench trajectory.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"text/tabwriter"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Rec is one structured per-row record: column name -> raw (unformatted)
// value. encoding/json sorts map keys, so marshaling is deterministic.
type Rec map[string]any

// row pairs one table row with its structured record.
type row struct {
	cols []any
	rec  Rec
}

// experiment is one registry entry. The registry slice is the single
// ordered source of truth: All, ByName, Run, and List all drive off it.
type experiment struct {
	id    string
	title string
	run   func(*Ctx)
}

var experiments = []experiment{
	{"E1", "synchronizer overheads (sync BFS workload)", e1SynchronizerOverheads},
	{"E2", "async BFS time vs diameter (Thm 4.23)", e2BFSTimeVsD},
	{"E3", "async BFS messages vs edge count (Thm 4.23)", e3BFSMessagesVsM},
	{"E4", "multi-source BFS time vs D1 (Thm 4.24)", e4MultiSourceD1},
	{"E5", "async deterministic leader election (Cor 1.3)", e5LeaderElection},
	{"E6", "async deterministic MST (Cor 1.4)", e6MST},
	{"E7", "registration congestion — wave (§3.2) vs naive root-routing ([AP90a])", e7RegistrationCongestion},
	{"E8", "α message blow-up vs main synchronizer (App. A)", e8AlphaBlowup},
	{"E9", "delay-adversary robustness (worst-case model, §1.1)", e9AdversaryRobustness},
	{"E10", "sparse cover quality (Thm 4.21)", e10CoverQuality},
	{"E11", "link multiplexing & stage priorities (Cor 2.3 / Lem 2.5)", e11StagePipelining},
	{"E12", "gather-in-covers cost (Thm 3.1)", e12GatherCost},
	{"E16", "retained footprint vs n (graph plane + engine state)", e16Footprint},
	{"E17", "fault-plane overhead vs fault rate (crash × drop × budget)", e17FaultOverhead},
	{"E18", "state-plane snapshot overhead (frame bytes + time vs interval)", e18SnapshotOverheads},
}

func byID(id string) *experiment {
	for i := range experiments {
		if experiments[i].id == id {
			return &experiments[i]
		}
	}
	return nil
}

// Info describes one experiment for listings.
type Info struct {
	ID    string
	Title string
}

// List returns the experiments in registry order.
func List() []Info {
	out := make([]Info, len(experiments))
	for i, e := range experiments {
		out[i] = Info{ID: e.id, Title: e.title}
	}
	return out
}

// IDs returns every experiment id in registry order.
func IDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.id
	}
	return out
}

// Options configures a harness run.
type Options struct {
	// Workers is the job pool size; <= 1 runs every trial serially. Tables
	// and records are byte-identical across worker counts.
	Workers int
	// JSON emits one JSON document of structured records instead of text
	// tables.
	JSON bool
	// Seed overrides every experiment's default delay-adversary seed
	// (cmd/syncbench -seed). Zero keeps the per-experiment defaults, which
	// reproduce the published tables. Experiments that deliberately use a
	// degenerate adversary (Fixed delays) are unaffected.
	Seed uint64
	// Graph is an optional extra topology, as a graph.FromSpec string
	// (cmd/syncbench -graph, e.g. "grid3d:100x100x100"). E16 and E18
	// append it as an extra row after their built-in cases — this is how
	// the committed BENCH_6.json gets its million-node rows without every
	// default run paying for them. Other experiments ignore it. Invalid
	// specs fail Run before anything runs.
	Graph string
	// Faults is an optional fault-schedule spec (async.ParseFaultSpec,
	// e.g. "crash:p=0.01,drop:p=0.05,budget=3,seed=7"; cmd/syncbench
	// -faults). When set, every experiment's delay adversary is wrapped in
	// the schedule — tables then measure the algorithms under message loss
	// and crash blackouts, not the published fault-free shapes — and E17
	// appends the spec as an extra row after its built-in schedule grid.
	// Invalid specs fail Run before anything runs.
	Faults string
	// SnapshotEvery, when > 0, appends an extra checkpoint interval to
	// every E18 case after its built-in sweep (cmd/syncbench
	// -snapshot-every), the same extra-row pattern as Graph and Faults.
	// Other experiments ignore it.
	SnapshotEvery uint64
	// Resume is an optional checkpoint file written by a sharded run
	// (shardsim/asyncbfs -snapshot-path; cmd/syncbench -resume). E18
	// appends a final row that resumes it through the sharded coordinator
	// with in-process workers, pricing restore-to-completion on a real
	// file. Missing or corrupt files fail Run before anything runs.
	Resume string
}

// ExpRecords is the JSON shape of one experiment's output.
type ExpRecords struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Rows  []Rec  `json:"rows"`
}

// Output is the top-level JSON document of a -json run.
type Output struct {
	Schema      string       `json:"schema"`
	Experiments []ExpRecords `json:"experiments"`
}

// Ctx is the per-run context handed to each experiment: table output,
// worker pool, run-wide option overrides, and the record accumulator.
type Ctx struct {
	w       io.Writer
	workers int
	seed    uint64
	// gspec/custom carry the Options.Graph extra topology: the spec string
	// (used as the row label and re-built by E16's footprint probe) and the
	// graph itself, built once up front.
	gspec  string
	custom *graph.Graph
	// faults/fspec carry Options.Faults: the parsed schedule wrapped
	// around every adversary c.adv hands out, and the raw spec string E17
	// uses as its extra-row label.
	faults *async.FaultSchedule
	fspec  string
	// snapEvery/resume carry Options.SnapshotEvery/Options.Resume: E18's
	// extra checkpoint interval and its optional real-file resume row.
	snapEvery uint64
	resume    string
	cur       *ExpRecords
	exps      []ExpRecords
}

// seedOr returns the run-wide adversary-seed override, or the
// experiment's default when none was given.
func (c *Ctx) seedOr(def uint64) uint64 {
	if c.seed != 0 {
		return c.seed
	}
	return def
}

// adv returns the seeded random delay adversary an experiment should use,
// honoring the -seed override and wrapping in the run-wide fault
// schedule when one was given.
func (c *Ctx) adv(def uint64) async.Adversary {
	return async.WithFaults(async.SeededRandom{Seed: c.seedOr(def)}, c.faults)
}

// table accumulates aligned rows.
type table struct {
	w   *tabwriter.Writer
	ctx *Ctx
}

// table opens the experiment's table, printing the registry title plus the
// experiment's expectation note.
func (c *Ctx) table(note string) *table {
	fmt.Fprintf(c.w, "\n=== %s: %s ===\n", c.cur.ID, c.cur.Title)
	if note != "" {
		fmt.Fprintf(c.w, "%s\n", note)
	}
	return &table{w: tabwriter.NewWriter(c.w, 2, 4, 2, ' ', 0), ctx: c}
}

// head writes the column-header row.
func (t *table) head(cols ...any) { t.row(cols...) }

func (t *table) row(cols ...any) {
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(t.w, "%.1f", v)
		default:
			fmt.Fprintf(t.w, "%v", v)
		}
	}
	fmt.Fprintln(t.w)
}

// emit writes the merged job rows — table lines plus structured records —
// and flushes the table.
func (t *table) emit(rows []row) {
	for _, r := range rows {
		t.row(r.cols...)
		if r.rec != nil {
			t.ctx.cur.Rows = append(t.ctx.cur.Rows, r.rec)
		}
	}
	t.w.Flush()
}

// jobs executes n independent trials on the worker pool and returns their
// rows merged in job order, so output is identical to a serial run.
func (c *Ctx) jobs(n int, fn func(i int) []row) []row {
	out := make([][]row, n)
	workers := c.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	var flat []row
	for _, rs := range out {
		flat = append(flat, rs...)
	}
	return flat
}

// Run executes the given experiments (nil or empty = all) with the given
// options, writing tables — or, with Options.JSON, one JSON document — to
// w. It errors on unknown ids without running anything.
func Run(w io.Writer, ids []string, opts Options) error {
	if len(ids) == 0 {
		ids = IDs()
	}
	for _, id := range ids {
		if byID(id) == nil {
			return fmt.Errorf("unknown experiment %q (want one of %s)", id, strings.Join(IDs(), ","))
		}
	}
	tw := w
	if opts.JSON {
		tw = io.Discard
	}
	fs, err := async.ParseFaultSpec(opts.Faults)
	if err != nil {
		return err
	}
	if opts.Resume != "" {
		data, err := os.ReadFile(opts.Resume)
		if err != nil {
			return err
		}
		if _, err := wire.OpenSnapshot(data); err != nil {
			return fmt.Errorf("resume %s: %v", opts.Resume, err)
		}
	}
	c := &Ctx{w: tw, workers: opts.Workers, seed: opts.Seed, gspec: opts.Graph, faults: fs, fspec: opts.Faults, snapEvery: opts.SnapshotEvery, resume: opts.Resume}
	if opts.Graph != "" {
		g, err := graph.FromSpec(opts.Graph)
		if err != nil {
			return err
		}
		c.custom = g
	}
	for _, id := range ids {
		e := byID(id)
		c.exps = append(c.exps, ExpRecords{ID: e.id, Title: e.title})
		c.cur = &c.exps[len(c.exps)-1]
		e.run(c)
	}
	if opts.JSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(Output{Schema: "syncbench/v1", Experiments: c.exps})
	}
	return nil
}

// All runs every experiment serially, emitting text tables.
func All(w io.Writer) {
	if err := Run(w, nil, Options{}); err != nil {
		panic(err) // unreachable: registry ids are always valid
	}
}

// ByName runs one experiment by its id (one of IDs()); it reports whether
// the id was known.
func ByName(w io.Writer, id string) bool {
	if byID(id) == nil {
		return false
	}
	if err := Run(w, []string{id}, Options{}); err != nil {
		return false
	}
	return true
}

// Exported per-experiment entry points (serial, table output); root
// bench_test.go's Benchmark wrappers call these.
func E1SynchronizerOverheads(w io.Writer)  { ByName(w, "E1") }
func E2BFSTimeVsD(w io.Writer)             { ByName(w, "E2") }
func E3BFSMessagesVsM(w io.Writer)         { ByName(w, "E3") }
func E4MultiSourceD1(w io.Writer)          { ByName(w, "E4") }
func E5LeaderElection(w io.Writer)         { ByName(w, "E5") }
func E6MST(w io.Writer)                    { ByName(w, "E6") }
func E7RegistrationCongestion(w io.Writer) { ByName(w, "E7") }
func E8AlphaBlowup(w io.Writer)            { ByName(w, "E8") }
func E9AdversaryRobustness(w io.Writer)    { ByName(w, "E9") }
func E10CoverQuality(w io.Writer)          { ByName(w, "E10") }
func E11StagePipelining(w io.Writer)       { ByName(w, "E11") }
func E12GatherCost(w io.Writer)            { ByName(w, "E12") }
func E16Footprint(w io.Writer)             { ByName(w, "E16") }
func E17FaultOverhead(w io.Writer)         { ByName(w, "E17") }
