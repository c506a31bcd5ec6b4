package core

import (
	"reflect"
	"testing"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// TestSynchronizeFaultMode pins the synchronizer stack's cross-mode
// determinism under faults: the full Result of a synchronized run with a
// drop schedule must be identical between the serial engine and the
// bounded-lag parallel windows.
func TestSynchronizeFaultMode(t *testing.T) {
	g := graph.Grid(5, 6)
	bound := g.Diameter() + 2
	fs := &async.FaultSchedule{Seed: 13, DropP: 0.15, Budget: 3}
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
	adv := async.WithFaults(async.SeededRandom{Seed: 6}, fs)
	want := Synchronize(Config{Graph: g, Bound: bound, Adversary: adv, Mode: async.ModeSingle}, mk)
	got := Synchronize(Config{Graph: g, Bound: bound, Adversary: adv, Mode: async.ModeMulti, Workers: 4}, mk)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("synchronized run under faults differs between Single and Multi")
	}
	if want.Dropped == 0 || want.Retrans == 0 {
		t.Fatalf("schedule exercised nothing: dropped=%d retrans=%d", want.Dropped, want.Retrans)
	}
}

// TestWatchdogVerdicts: a fault-free run must never read as stalled; a
// run whose retransmit budget is exhausted early must. The pulse frontiers
// are pinned: every node's highest created vnode, -1 for none.
func TestWatchdogVerdicts(t *testing.T) {
	g := graph.Grid(5, 6)
	bound := g.Diameter() + 2
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }

	res, rep := SynchronizeWatched(Config{Graph: g, Bound: bound, Adversary: async.SeededRandom{Seed: 6}}, mk)
	if rep.IsStalled() {
		t.Fatalf("fault-free run reported stalled: %+v", rep)
	}
	if rep.Nodes != g.N() || rep.Outputs != len(res.Outputs) {
		t.Fatalf("report miscounted: %+v vs %d outputs", rep, len(res.Outputs))
	}
	checkFrontier(t, rep, 2, 10, 27)

	fs := &async.FaultSchedule{Seed: 5, DropP: 0.4, Budget: 0}
	res, rep = SynchronizeWatched(Config{Graph: g, Bound: bound,
		Adversary: async.WithFaults(async.SeededRandom{Seed: 6}, fs)}, mk)
	if res.Undeliverable == 0 {
		t.Fatal("budget-0 schedule abandoned nothing")
	}
	if !rep.IsStalled() {
		t.Fatalf("starved run not flagged: %+v (outputs=%d of %d)", rep, len(res.Outputs), g.N())
	}
	if rep.Undeliverable != res.Undeliverable {
		t.Fatalf("report undeliverable %d != result %d", rep.Undeliverable, res.Undeliverable)
	}
	checkFrontier(t, rep, -1, -1, 0) // starved before any pulse-0 release

	// Two lost messages leave a ragged frontier: some nodes never got
	// past the barriers, others reached pulse 4.
	fs = &async.FaultSchedule{Seed: 1, DropP: 0.002, Budget: 0}
	_, rep = SynchronizeWatched(Config{Graph: g, Bound: bound,
		Adversary: async.WithFaults(async.SeededRandom{Seed: 6}, fs)}, mk)
	if !rep.IsStalled() {
		t.Fatalf("ragged stall not flagged: %+v", rep)
	}
	checkFrontier(t, rep, -1, 4, 18)
}

func checkFrontier(t *testing.T, rep StallReport, minPulse, maxPulse, stalled int) {
	t.Helper()
	if rep.MinPulse != minPulse || rep.MaxPulse != maxPulse || rep.StalledCount != stalled {
		t.Fatalf("frontier min=%d max=%d stalled=%d, want %d/%d/%d",
			rep.MinPulse, rep.MaxPulse, rep.StalledCount, minPulse, maxPulse, stalled)
	}
}

// TestUnknownBoundFaultBilling: the doubling runner must bill fault
// counters across attempts and stop doubling on a stalled quiescence
// instead of retrying forever (a larger bound cannot resurrect a message
// whose budget is spent).
func TestUnknownBoundFaultBilling(t *testing.T) {
	g := graph.Grid(4, 5)
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
	fs := &async.FaultSchedule{Seed: 5, DropP: 0.4, Budget: 0}
	res, bound, rep := SynchronizeUnknownBoundWatched(g,
		async.WithFaults(async.SeededRandom{Seed: 6}, fs), mk)
	if bound < 8 {
		t.Fatalf("bound = %d", bound)
	}
	if res.Dropped == 0 || res.Undeliverable == 0 {
		t.Fatalf("no fault billing: %+v", res)
	}
	if !rep.IsStalled() {
		t.Fatalf("stall not reported: %+v", rep)
	}

	// Fault-free reference still works and reports clean.
	res, _, rep = SynchronizeUnknownBoundWatched(g, async.SeededRandom{Seed: 6}, mk)
	if rep.IsStalled() || res.Dropped != 0 {
		t.Fatalf("clean run misreported: %+v / %+v", res, rep)
	}
	if len(res.Outputs) != g.N() {
		t.Fatalf("clean run incomplete: %d outputs", len(res.Outputs))
	}
}

// TestBuildLayeredForEpochCache pins the invalidation-aware cover cache:
// fault-free schedules hit the fault-free cache, identical
// (graph, schedule, epoch) keys return the identical repaired cover, and
// the repair equals a from-scratch masked build of the same epoch.
func TestBuildLayeredForEpochCache(t *testing.T) {
	ResetEpochCoverCache()
	g := graph.Grid(8, 8)
	g.Finalize()
	b := 32

	clean, stats := BuildLayeredForEpoch(g, b, nil, 0)
	if stats != nil {
		t.Fatalf("fault-free epoch build reported repair stats: %+v", stats)
	}
	if clean != BuildLayeredFor(g, b) {
		t.Fatal("fault-free epoch build missed the base cache")
	}

	fs := &async.FaultSchedule{Seed: 11, CrashP: 0.05, Budget: 1}
	l1, stats1 := BuildLayeredForEpoch(g, b, fs, 2)
	l2, _ := BuildLayeredForEpoch(g, b, fs, 2)
	if l1 != l2 {
		t.Fatal("identical epoch key rebuilt instead of hitting the cache")
	}
	faulted := fs.CrashedSet(g.N(), 2)
	if len(faulted) == 0 {
		t.Fatal("schedule crashed nobody at epoch 2; pick a different seed")
	}
	if stats1 == nil {
		t.Fatal("crash epoch reported no repair stats")
	}
	base := BuildLayeredFor(g, b)
	wantRepaired, _ := cover.RepairLayered(base, faulted)
	if !reflect.DeepEqual(l1, wantRepaired) {
		t.Fatal("cached epoch cover differs from direct repair")
	}

	// A different epoch with a different crashed set is a different entry.
	var other uint64
	for e := uint64(3); e < 64; e++ {
		set := fs.CrashedSet(g.N(), e)
		if len(set) > 0 && !reflect.DeepEqual(set, faulted) {
			other = e
			break
		}
	}
	if other != 0 {
		l3, _ := BuildLayeredForEpoch(g, b, fs, other)
		if l3 == l1 {
			t.Fatal("distinct crashed sets shared a cache entry")
		}
	}
}
