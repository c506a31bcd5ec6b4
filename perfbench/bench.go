package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/async"
	"repro/internal/execpolicy"
)

// options is one benchmark invocation.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	toy     bool
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is one invocation's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	info      []string
	errs      []string
	spans     []jobSpans
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// Set-up repeats until this much set-up time has been spent (at least
// minSetups, at most maxSetups times); setup_s is the median.
const (
	setupBudget = 1.0
	minSetups   = 3
	maxSetups   = 100
	// minJobs timed jobs run even when one job outlasts --seconds.
	minJobs = 3
)

// jobOut is one synchronized run ("job") on one of the run's graphs.
type jobOut struct {
	inst    int
	traced  bool
	start   time.Time
	wall    float64
	res     async.Result
	spec    async.SpecStats
	mallocs uint64
	bytes   uint64
	layers  [numLayers]layerAcc
	inHdl   int64 // time inside node handlers (traced jobs)
	err     error
}

// runJob executes one job: engine assembly plus Run, timed, with the
// allocations it made. The heap is collected first, outside the timed
// region, so every job starts from the same live heap. A panic is
// reported as the job's error.
func runJob(in *instance, idx int, traced bool) (out jobOut) {
	out.inst, out.traced = idx, traced
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("panic: %v", r)
		}
	}()
	var tr *tracer
	if traced {
		tr = newTracer(in.g.N())
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out.start = time.Now()
	sim := in.newSim(tr)
	out.res = sim.Run()
	out.wall = time.Since(out.start).Seconds()
	runtime.ReadMemStats(&m1)
	out.spec = sim.SpecStats()
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.bytes = m1.TotalAlloc - m0.TotalAlloc
	if tr != nil {
		out.layers, out.inHdl = tr.sum()
	}
	return out
}

// verify holds a job to the lockstep reference and, when given, to the
// first job on the same graph: the outputs must equal lockstep's, and the
// simulated time and message counts must be identical across all jobs.
func (in *instance) verify(out *jobOut, first *async.Result) error {
	if out.err != nil {
		return out.err
	}
	if out.res.Undeliverable != 0 || out.res.Dropped != 0 {
		return fmt.Errorf("fault-free run lost messages: dropped=%d undeliverable=%d",
			out.res.Dropped, out.res.Undeliverable)
	}
	if !reflect.DeepEqual(out.res.Outputs, in.ref.Outputs) {
		return fmt.Errorf("outputs differ from lockstep")
	}
	if first != nil {
		a := &out.res
		if a.Time != first.Time || a.Msgs != first.Msgs || a.Acks != first.Acks || !reflect.DeepEqual(a.PerProto, first.PerProto) {
			return fmt.Errorf("simulated time/msgs differ between jobs: t=%v/%v msgs=%d/%d",
				a.Time, first.Time, a.Msgs, first.Msgs)
		}
	}
	return nil
}

var choiceNames = map[execpolicy.AsyncChoice]string{
	execpolicy.AsyncSerial:  "serial",
	execpolicy.AsyncWindows: "windows",
	execpolicy.AsyncSpec:    "spec",
}

// run sets the workload up, runs the closed loop (one job in flight,
// cycling over the workload's graphs) for o.seconds, and reports the
// end-to-end metrics, or with o.trace the per-layer metrics of traced jobs
// alternating with untraced ones. Timings and layer figures are each
// graph's median over its jobs, averaged over the graphs.
func run(w *workload, o options) (*report, error) {
	rep := &report{correct: true}
	rep.infof("env nproc=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var insts []*instance
	var setups []setupTimes
	spent := 0.0
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		runtime.GC()
		set, st, err := w.setup(o.seed, o.toy)
		if err != nil {
			return nil, err
		}
		insts = set
		setups = append(setups, st)
		spent += st.total
	}
	setupMed := func(f func(setupTimes) float64) float64 {
		vs := make([]float64, len(setups))
		for i, s := range setups {
			vs[i] = f(s)
		}
		return median(vs)
	}
	k := len(insts)
	choice := insts[0].choice(nil)
	for i, in := range insts {
		if err := w.check(in.g, in.ref.Outputs); err != nil {
			return nil, err
		}
		rep.infof("graph %d: %s n=%d m=%d links=%d bound=%d lockstepT=%d lockstepM=%d",
			i, in.spec, in.g.N(), in.g.M(), in.g.Links(), in.bound, in.ref.T, in.ref.M)
		if c := in.choice(nil); c != choice {
			return nil, fmt.Errorf("graph %d runs under executor %d, graph 0 under %d", i, c, choice)
		}
		if o.trace {
			if tc := in.choice(newTracer(in.g.N())); tc != choice {
				rep.correct = false
				rep.errs = append(rep.errs, fmt.Sprintf("graph %d: traced stack changes execpolicy.choice to %d from %d", i, tc, choice))
			}
		}
	}
	rep.infof("workload=%s seed=%d graphs=%d setups=%d executor=%s (execpolicy.choice=%d)",
		w.name, o.seed, k, len(setups), choiceNames[choice], choice)

	// One untimed warm-up job. Each graph's first job is the reference its
	// later jobs must reproduce exactly.
	refs := make([]*async.Result, k)
	warm := runJob(insts[0], 0, false)
	rep.attempted++
	if err := insts[0].verify(&warm, nil); err != nil {
		rep.failed++
		rep.correct = false
		rep.errs = append(rep.errs, "warm-up job: "+err.Error())
		return rep, nil
	}
	warm.res.Outputs = nil
	refs[0] = &warm.res

	var jobs []jobOut
	nPlain, nTraced := 0, 0
	epoch := time.Now()
	for i := 0; time.Since(epoch).Seconds() < o.seconds || nPlain < max(minJobs, k) || (o.trace && nTraced < k); i++ {
		idx, traced := i%k, false
		if o.trace {
			idx, traced = (i/2)%k, i%2 == 1
		}
		out := runJob(insts[idx], idx, traced)
		rep.attempted++
		if err := insts[idx].verify(&out, refs[idx]); err != nil {
			rep.failed++
			rep.correct = false
			rep.errs = append(rep.errs, fmt.Sprintf("job %d (graph %d): %v", i, idx, err))
			continue
		}
		out.res.Outputs = nil // checked; keeping them would grow the live heap
		if refs[idx] == nil {
			refs[idx] = &out.res
		}
		// The speculative executor is the one choice a run leaves evidence
		// of; the job must have run under the executor reported.
		if ranSpec := out.spec.Rounds > 0; ranSpec != (choice == execpolicy.AsyncSpec) {
			rep.correct = false
			rep.errs = append(rep.errs, fmt.Sprintf("job %d (graph %d): ran speculative rounds=%d under reported executor %s",
				i, idx, out.spec.Rounds, choiceNames[choice]))
		}
		if traced {
			nTraced++
		} else {
			nPlain++
		}
		jobs = append(jobs, out)
		span := jobSpans{Job: i, Graph: idx, Traced: traced, StartNs: out.start.Sub(epoch).Nanoseconds(),
			EndNs: out.start.Sub(epoch).Nanoseconds() + int64(out.wall*1e9), Handler: out.inHdl}
		if traced {
			span.Layers = make(map[string]layerAcc, numLayers)
			for l, a := range out.layers {
				span.Layers[layerNames[l]] = a
			}
		}
		rep.spans = append(rep.spans, span)
	}
	if rep.failed > 0 {
		return rep, nil
	}

	// perGraph averages, over the run's graphs, the median of f over each
	// graph's (traced or untraced) jobs.
	perGraph := func(traced bool, f func(*jobOut) float64) float64 {
		byGraph := make([][]float64, k)
		for i := range jobs {
			if j := &jobs[i]; j.traced == traced {
				byGraph[j.inst] = append(byGraph[j.inst], f(j))
			}
		}
		sum := 0.0
		for _, vs := range byGraph {
			sum += median(vs)
		}
		return sum / float64(k)
	}
	// perRef averages a deterministic figure of each graph's reference.
	perRef := func(f func(in *instance, res *async.Result) float64) float64 {
		sum := 0.0
		for i, in := range insts {
			sum += f(in, refs[i])
		}
		return sum / float64(k)
	}
	wall := func(j *jobOut) float64 { return j.wall }
	jobS := perGraph(false, wall)
	var walls []float64
	var sumWall float64
	var sumMsgs, sumMallocs, sumBytes uint64
	for _, j := range jobs {
		if !j.traced {
			walls = append(walls, j.wall)
			sumWall += j.wall
			sumMsgs += j.res.Msgs
			sumMallocs += j.mallocs
			sumBytes += j.bytes
		}
	}
	rep.infof("jobs=%d job_s=%.6f (all jobs: median=%.6f p90=%.6f max=%.6f)",
		nPlain, jobS, median(walls), quantile(walls, 0.9), slices.Max(walls))

	if !o.trace {
		rep.add("setup_s", setupMed(func(s setupTimes) float64 { return s.total }), "s")
		rep.add("job_s", jobS, "s")
		rep.add("sim_msgs_per_s", float64(sumMsgs)/sumWall, "1/s")
		rep.add("allocs_per_msg", float64(sumMallocs)/float64(sumMsgs), "allocs/msg")
		rep.add("bytes_per_msg", float64(sumBytes)/float64(sumMsgs), "B/msg")
		rep.add("max_rss_mb", maxRSSMB(), "MB")
		rep.add("time_overhead", perRef(func(in *instance, r *async.Result) float64 {
			return r.Time / float64(in.ref.T)
		}), "ratio")
		rep.add("msg_overhead", perRef(func(in *instance, r *async.Result) float64 {
			return float64(r.Msgs) / float64(in.ref.M+uint64(in.g.M()))
		}), "ratio")
		rep.infof("fail_ratio=%g", float64(rep.failed)/float64(rep.attempted))
		return rep, nil
	}

	busy := func(l layer) func(*jobOut) float64 {
		return func(j *jobOut) float64 { return float64(j.layers[l].Busy) / 1e9 }
	}
	self := func(l layer) func(*jobOut) float64 {
		return func(j *jobOut) float64 { return float64(j.layers[l].Self) / 1e9 }
	}
	protoMsgs := func(l layer) float64 {
		return perRef(func(_ *instance, r *async.Result) float64 {
			n := uint64(0)
			for p, c := range r.PerProto {
				if protoLayer(p) == l {
					n += c
				}
			}
			return float64(n)
		})
	}
	asyncSelf := perGraph(true, func(j *jobOut) float64 { return j.wall - float64(j.inHdl)/1e9 })
	events := perRef(func(_ *instance, r *async.Result) float64 { return float64(r.Msgs + r.Acks) })
	spec := func(f func(async.SpecStats) float64) float64 {
		return perGraph(false, func(j *jobOut) float64 { return f(j.spec) })
	}

	rep.add("graph.build_s", setupMed(func(s setupTimes) float64 { return s.graph }), "s")
	rep.add("syncrun.run_s", setupMed(func(s setupTimes) float64 { return s.syncrun }), "s")
	rep.add("cover.build_s", setupMed(func(s setupTimes) float64 { return s.cover }), "s")
	rep.add("syncrun.rounds", perRef(func(in *instance, _ *async.Result) float64 { return float64(in.ref.T) }), "rounds")
	rep.add("syncrun.msgs", perRef(func(in *instance, _ *async.Result) float64 { return float64(in.ref.M) }), "count")
	rep.add("cover.clusters", perRef(func(in *instance, _ *async.Result) float64 { c, _ := in.coverStats(); return float64(c) }), "count")
	rep.add("cover.max_tree_depth", perRef(func(in *instance, _ *async.Result) float64 { _, d := in.coverStats(); return float64(d) }), "count")
	rep.add("core.busy_s", perGraph(true, busy(layerCore)), "s")
	rep.add("core.self_s", perGraph(true, self(layerCore)), "s")
	rep.add("reg.busy_s", perGraph(true, busy(layerReg)), "s")
	rep.add("gather.busy_s", perGraph(true, busy(layerGather)), "s")
	rep.add("async.mux.self_s", perGraph(true, self(layerMux)), "s")
	rep.add("core.msgs", protoMsgs(layerCore), "count")
	rep.add("reg.msgs", protoMsgs(layerReg), "count")
	rep.add("gather.msgs", protoMsgs(layerGather), "count")
	rep.add("apps.busy_s", perGraph(true, busy(layerApps)), "s")
	rep.add("apps.calls", perGraph(true, func(j *jobOut) float64 { return float64(j.layers[layerApps].Calls) }), "count")
	rep.add("async.events", events, "count")
	rep.add("async.self_s", asyncSelf, "s")
	rep.add("async.self_ns_per_event", asyncSelf*1e9/events, "ns/event")
	rep.add("execpolicy.choice", float64(choice), "enum")
	rep.add("async.spec.executed", spec(func(s async.SpecStats) float64 { return float64(s.Executed) }), "count")
	rep.add("async.spec.commit_ratio", spec(func(s async.SpecStats) float64 {
		if s.Executed == 0 {
			return 0
		}
		return float64(s.Committed) / float64(s.Executed)
	}), "ratio")
	rep.add("async.spec.replayed", spec(func(s async.SpecStats) float64 { return float64(s.Replayed) }), "count")
	rep.add("trace.overhead_ratio", perGraph(true, wall)/jobS, "ratio")
	rep.add("fail_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")
	return rep, nil
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile interpolates linearly between the order statistics.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
