package dsync

import (
	"reflect"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	g := Grid(4, 4)
	mk := NewFlood(0)
	sres := RunSync(g, mk)
	if sres.T != g.Diameter() {
		t.Fatalf("flood T = %d, want %d", sres.T, g.Diameter())
	}
	ares := Synchronize(g, sres.Rounds+2, RandomDelays(1), mk)
	for v, want := range sres.Outputs {
		if ares.Outputs[v] != want {
			t.Fatalf("node %d: async %v, sync %v", v, ares.Outputs[v], want)
		}
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	g := Cycle(10)
	mk := NewBFS([]NodeID{0})
	sres := RunSync(g, mk)
	bound := sres.Rounds + 2
	for name, res := range map[string]AsyncResult{
		"alpha": SynchronizeAlpha(g, bound, FixedDelays(1), mk),
		"beta":  SynchronizeBeta(g, bound, FixedDelays(1), mk),
		"gamma": SynchronizeGamma(g, bound, FixedDelays(1), mk),
	} {
		for v, want := range sres.Outputs {
			if res.Outputs[v] != want {
				t.Fatalf("%s: node %d mismatch", name, v)
			}
		}
	}
}

func TestPublicAPILeaderAndMST(t *testing.T) {
	g := WithRandomWeights(Grid(4, 4), 3)
	lres := AsyncLeaderElection(g, RandomDelays(2))
	for v := 0; v < g.N(); v++ {
		if lres.Outputs[NodeID(v)] != NodeID(0) {
			t.Fatalf("node %d elected %v", v, lres.Outputs[NodeID(v)])
		}
	}
	mres := AsyncMST(g, RandomDelays(2))
	edges := map[[2]NodeID]bool{}
	for v := 0; v < g.N(); v++ {
		out := mres.Outputs[NodeID(v)].(MSTResult)
		for _, nb := range out.TreeNeighbors {
			key := [2]NodeID{NodeID(v), nb}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			edges[key] = true
		}
	}
	if len(edges) != g.N()-1 {
		t.Fatalf("MST edge count %d, want %d", len(edges), g.N()-1)
	}
}

func TestPublicAPIThresholdedBFS(t *testing.T) {
	g := Path(12)
	res := ThresholdedBFS(g, []NodeID{0}, 4, RandomDelays(5))
	if res.Complete {
		t.Fatal("threshold 4 on path 12 cannot be complete")
	}
	reached, beyond := 0, 0
	for v := 0; v < g.N(); v++ {
		switch res.Outputs[NodeID(v)].(type) {
		case Unreachable:
			beyond++
		default:
			reached++
		}
	}
	if reached != 5 || beyond != 7 {
		t.Fatalf("reached=%d beyond=%d, want 5/7", reached, beyond)
	}
}

func TestPublicAPIAsyncBFS(t *testing.T) {
	g := Cycle(12)
	res := AsyncBFS(g, []NodeID{0}, RandomDelays(9))
	if len(res.Outputs) != g.N() {
		t.Fatalf("outputs %d, want %d", len(res.Outputs), g.N())
	}
	if res.FinalThreshold < g.Diameter() {
		t.Fatalf("final threshold %d < D %d", res.FinalThreshold, g.Diameter())
	}
}

func TestCoverReuseAcrossRuns(t *testing.T) {
	g := Grid(4, 4)
	mk := NewBFS([]NodeID{0})
	sres := RunSync(g, mk)
	bound := sres.Rounds + 2
	l := BuildCovers(g, bound)
	a := SynchronizeWithCovers(g, bound, RandomDelays(3), l, mk)
	b := SynchronizeWithCovers(g, bound, RandomDelays(3), l, mk)
	if a.Time != b.Time || a.Msgs != b.Msgs {
		t.Fatal("cover reuse broke determinism")
	}
}

func TestPublicAPISnapshotReplay(t *testing.T) {
	g := Grid(5, 5)
	mk := NewBFS([]NodeID{0})
	sres := RunSync(g, mk)
	bound := sres.Rounds + 2

	// Synchronized (asynchronous-engine) checkpoint: step, snapshot,
	// replay twice through the same handle.
	want := Synchronize(g, bound, RandomDelays(2), mk)
	run := NewSynchronizedRun(g, bound, RandomDelays(2), mk)
	run.RunSteps(100)
	snap, err := run.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	replayer := NewSynchronizedRun(g, bound, RandomDelays(2), mk)
	for i := 0; i < 2; i++ {
		got, err := Replay(replayer, snap)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replay %d diverged from the uninterrupted synchronized run", i)
		}
	}

	// Lockstep checkpoint: snapshot at a pulse boundary, replay.
	swant := RunSync(g, mk)
	lr := NewLockstepRun(g, mk)
	lr.RunPulses(2)
	lsnap, err := lr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sgot, err := ReplayLockstep(g, mk, lsnap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sgot, swant) {
		t.Fatal("lockstep replay diverged from the uninterrupted run")
	}
}
