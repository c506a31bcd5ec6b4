// Command benchjson converts `go test -bench` output on stdin into the
// committed bench-trajectory artifact (BENCH_N.json): one record per
// benchmark with ns/op, allocs/op, bytes/op, any custom metrics, whether
// it was a multi-process sharded run, and the GOMAXPROCS the
// benchmark ran at (the -N name suffix). `make bench` pipes the engine
// microbenchmark suite through it.
//
// Usage:
//
//	go test -run '^$' -bench ... ./... | benchjson -note "..." > BENCH_4.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name without the -GOMAXPROCS suffix.
	Name string `json:"name"`
	// Mode is "shard" when a "shard"/"shards=K" segment anywhere in the
	// path marks a multi-process run, and "default" otherwise.
	Mode string `json:"mode"`
	// Shards is the worker-process count parsed from a "shards=K" path
	// segment; 0 when the benchmark is not a sharded run.
	Shards int `json:"shards,omitempty"`
	// Gomaxprocs is the -N suffix go test appends to the name.
	Gomaxprocs int     `json:"gomaxprocs"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"nsPerOp"`
	AllocsOp   float64 `json:"allocsPerOp,omitempty"`
	BytesOp    float64 `json:"bytesPerOp,omitempty"`
	// Footprint columns: the retained-memory probe (BenchmarkFootprint)
	// reports these units, and they are promoted out of Metrics so the
	// committed trajectory tracks resident bytes per link/node by name —
	// the numbers that decide whether ten million nodes fit in RAM.
	GraphBPerLink float64 `json:"graphBytesPerLink,omitempty"`
	AsyncBPerLink float64 `json:"asyncBytesPerLink,omitempty"`
	SyncBPerNode  float64 `json:"syncBytesPerNode,omitempty"`
	// Metrics carries every other reported unit (events/op, msgs/op, …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Output is the whole document.
type Output struct {
	Schema     string      `json:"schema"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	os.Exit(run())
}

func run() int {
	note := flag.String("note", "", "free-form provenance note embedded in the document")
	flag.Parse()
	out := Output{Schema: "enginebench/v1", Note: *note}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			out.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			out.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				out.Benchmarks = append(out.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// parseLine parses one result line:
//
//	BenchmarkName/sub-8  123  456.7 ns/op  89 B/op  1 allocs/op  2 events/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Gomaxprocs: 1, Mode: "default", Metrics: map[string]float64{}}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Gomaxprocs = p
			b.Name = b.Name[:i]
		}
	}
	b.Mode, b.Shards = inferMode(b.Name)
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "allocs/op":
			b.AllocsOp = v
		case "B/op":
			b.BytesOp = v
		case "graphB/link":
			b.GraphBPerLink = v
		case "asyncB/link":
			b.AsyncBPerLink = v
		case "syncB/node":
			b.SyncBPerNode = v
		default:
			b.Metrics[unit] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}

// inferMode maps a benchmark name to "shard", plus the shard count, when a
// "shard" or "shards=K" segment anywhere in the path marks a multi-process
// run, and to "default" otherwise.
func inferMode(name string) (string, int) {
	for _, seg := range strings.Split(strings.ToLower(name), "/") {
		if seg == "shard" {
			return "shard", 0
		}
		if rest, ok := strings.CutPrefix(seg, "shards="); ok {
			if k, err := strconv.Atoi(rest); err == nil && k > 0 {
				return "shard", k
			}
		}
	}
	return "default", 0
}
