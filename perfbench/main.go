// Command perfbench is the repository's end-to-end benchmark: it runs one
// named workload through the paper's synchronizer pipeline (graph, lockstep
// reference, covers, synchronized run on the async engine) in a closed loop
// with one job in flight, checks every job against the lockstep outputs,
// and prints its metrics as one JSON object on the last line of stdout.
//
//	perfbench --workload sync-bfs-grid --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs traced jobs
// (span recorders around every handler, Mux module and algorithm call)
// alternating with untraced ones, reports the per-layer metrics, and
// writes the per-job spans to --trace-dir. The exit code is non-zero when
// any job fails or disagrees with lockstep. See README.md for the
// workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// procs pins GOMAXPROCS so ModeAuto picks the same executor on every host.
const procs = 2

func main() {
	runtime.GOMAXPROCS(procs)
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed (adversary, er/pa graph seeds, MST weights)")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "perfbench"), "directory the traced run's spans are written to")
	flag.Parse()
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(w, options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range rep.info {
		fmt.Println("#", line)
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
	}
	if *trace == 1 {
		path, err := writeSpans(*traceDir, w.name, *seed, rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("# spans written to", path)
	}
	for _, m := range rep.metrics {
		fmt.Printf("# %-26s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := rep.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !rep.correct || rep.failed > 0 {
		os.Exit(1)
	}
}

// json renders the result line: correct, attempted, failed, metrics.
func (r *report) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct && r.failed == 0, r.attempted, r.failed, metrics})
	return string(b), err
}

// writeSpans dumps the traced run's per-job spans, with the run's
// environment and set-up lines, as one JSON document.
func writeSpans(dir, workload string, seed uint64, r *report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	b, err := json.MarshalIndent(struct {
		Info  string     `json:"info"`
		Spans []jobSpans `json:"spans"`
	}{strings.Join(r.info, "\n"), r.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
