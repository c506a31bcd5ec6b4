package core

import (
	"strings"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// SynchronizeUnknownBound is the Theorem 5.4 setting: no bound on T(A) is
// known. It runs doubling attempts — pulse bounds 8, 16, 32, … — summing
// time and message costs across attempts, until one attempt completes
// within its bound. The paper interleaves cover construction with the
// simulation inside a single execution; this harness restarts instead,
// which Lemma 2.5's sequential-composition argument prices identically up
// to a constant factor (Σ 2^t ≤ 2·2^T; DESIGN.md records the
// substitution). Deterministic algorithms make restarts exact replays, so
// the final outputs are unchanged.
//
// Accounting covers every attempt, not just the winner: a failed attempt's
// costs are snapshotted from the simulator (Sim.Stats) before its state
// unwinds, and PerProto merges across attempts, so the reported totals are
// the Σ 2^t sum the theorem prices. Time sums each attempt's elapsed
// simulation time (the failed attempts' full span plus the final attempt's
// time-to-output); QuiesceTime adds only the final attempt's.
func SynchronizeUnknownBound(g *graph.Graph, adv async.Adversary,
	mk func(id graph.NodeID) syncrun.Handler) (async.Result, int) {
	res, bound, _ := SynchronizeUnknownBoundWatched(g, adv, mk)
	return res, bound
}

// SynchronizeUnknownBoundWatched is SynchronizeUnknownBound plus
// fault-aware stall detection: when an attempt quiesces *without*
// hitting its pulse bound but the watchdog shows fault-induced
// starvation (undeliverable messages froze part of the pulse frontier),
// doubling stops — a larger bound cannot resurrect a message whose
// retransmit budget is spent, so continuing would bill unbounded retries
// for no progress. The returned report is the final attempt's; billing
// stays honest either way (every attempt's full costs are summed, the
// stalled attempt's included).
func SynchronizeUnknownBoundWatched(g *graph.Graph, adv async.Adversary,
	mk func(id graph.NodeID) syncrun.Handler) (async.Result, int, StallReport) {
	var total async.Result
	total.PerProto = make(map[async.Proto]uint64)
	for bound := 8; ; bound *= 2 {
		res, rep, ok := tryBound(g, bound, adv, mk)
		total.Time += res.Time
		total.Msgs += res.Msgs
		total.Acks += res.Acks
		total.Dropped += res.Dropped
		total.Retrans += res.Retrans
		total.Undeliverable += res.Undeliverable
		for p, n := range res.PerProto {
			total.PerProto[p] += n
		}
		if ok {
			total.QuiesceTime += res.QuiesceTime
			total.Outputs = res.Outputs
			return total, bound, rep
		}
		if bound > 64*g.N() {
			panic("core: unknown-bound doubling ran away")
		}
	}
}

// tryBound attempts one synchronized run; ok=false when the algorithm hit
// the pulse bound (the only recoverable panic; everything else re-panics).
// A failed attempt still reports the costs it accrued up to the abort.
// A quiesced-but-stalled attempt returns ok=true with the stall visible
// in the report: the bound was not the problem, so doubling must stop.
func tryBound(g *graph.Graph, bound int, adv async.Adversary,
	mk func(id graph.NodeID) syncrun.Handler) (res async.Result, rep StallReport, ok bool) {
	sim := newSynchronizedSim(Config{Graph: g, Bound: bound, Adversary: adv}, mk)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		msg, isStr := r.(string)
		if !isStr || !strings.Contains(msg, "bound too small") {
			panic(r)
		}
		// Bill the aborted attempt: the simulation unwinds, but its
		// counters are still readable. Time is the span the attempt ran
		// (every event up to the abort really happened).
		now, msgs, acks, perProto := sim.Stats()
		dropped, retrans, undeliv := sim.FaultStats()
		res = async.Result{Time: now, Msgs: msgs, Acks: acks, PerProto: perProto,
			Dropped: dropped, Retrans: retrans, Undeliverable: undeliv}
		ok = false
	}()
	res = sim.Run()
	return res, watchdogReport(sim, &res, bound), true
}
