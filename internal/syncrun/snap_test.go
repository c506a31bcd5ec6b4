package syncrun

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// codecBFS is syncBFS plus wire.StateCodec: src is config (rebuilt by the
// handler constructor), dist is the mutable state the frame carries.
type codecBFS struct {
	src  graph.NodeID
	dist int
}

func (h *codecBFS) Init(n API) {
	h.dist = -1
	if n.ID() == h.src {
		h.dist = 0
		n.Output(0)
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, wire.Tag(1))
		}
	}
}

func (h *codecBFS) Pulse(n API, p int, recvd []Incoming) {
	if h.dist >= 0 || len(recvd) == 0 {
		return
	}
	h.dist = p
	n.Output(p)
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, wire.Tag(1))
	}
}

func (h *codecBFS) SaveState(e *wire.Enc) { e.Int(h.dist) }
func (h *codecBFS) LoadState(d *wire.Dec) { h.dist = d.Int() }

func mkCodecBFS(graph.NodeID) Handler { return &codecBFS{src: 0} }

// TestLockstepSnapshotMatrix is the lockstep half of the round-trip
// invariant: snapshot after every pulse, restore into a fresh runner,
// finish — byte-identical to the uninterrupted run on every graph.
func TestLockstepSnapshotMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(17)},
		{"grid", graph.Grid(5, 8)},
		{"er", graph.RandomConnected(50, 130, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := New(tc.g, mkCodecBFS).KeepTrace().Run()
			for k := 0; ; k++ {
				a := New(tc.g, mkCodecBFS).KeepTrace()
				active := a.RunPulses(k)
				snap, err := a.Snapshot()
				if err != nil {
					t.Fatalf("snapshot at pulse %d: %v", k, err)
				}
				b := New(tc.g, mkCodecBFS).KeepTrace()
				if err := b.Restore(snap); err != nil {
					t.Fatalf("restore at pulse %d: %v", k, err)
				}
				if res := b.Run(); !reflect.DeepEqual(res, ref) {
					t.Fatalf("snapshot at pulse %d diverged from uninterrupted run", k)
				}
				if !active {
					break
				}
			}
		})
	}
}

// TestLockstepSnapshotStepped continues a restored runner with RunPulses
// rather than Run: stepping and finishing must agree with the reference
// as well (checkpoint-of-a-checkpoint composes).
func TestLockstepSnapshotStepped(t *testing.T) {
	g := graph.Grid(6, 7)
	ref := New(g, mkCodecBFS).Run()

	a := New(g, mkCodecBFS)
	a.RunPulses(3)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := New(g, mkCodecBFS)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for b.RunPulses(2) {
	}
	if res := b.FinishResult(); !reflect.DeepEqual(res, ref) {
		t.Fatal("stepped continuation diverged from uninterrupted run")
	}
}

// TestLockstepSnapshotErrors pins the validation surface: restores into a
// used or mismatched runner are rejected, truncated frames fail cleanly,
// and non-codec handlers refuse to snapshot.
func TestLockstepSnapshotErrors(t *testing.T) {
	g := graph.Path(9)
	a := New(g, mkCodecBFS)
	a.RunPulses(2)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Restore(snap); err == nil {
		t.Error("Restore into a runner that already stepped was accepted")
	}
	if err := New(graph.Path(10), mkCodecBFS).Restore(snap); err == nil {
		t.Error("restore into a different-size graph accepted")
	}
	if err := New(g, mkCodecBFS).KeepTrace().Restore(snap); err == nil {
		t.Error("restore with a mismatched trace flag accepted")
	}
	for _, n := range []int{0, 1, len(snap) / 2, len(snap) - 1} {
		if err := New(g, mkCodecBFS).Restore(snap[:n]); err == nil {
			t.Errorf("restore of %d/%d bytes accepted", n, len(snap))
		}
	}

	nc := New(g, func(graph.NodeID) Handler { return &syncBFS{src: 0} })
	nc.RunPulses(1)
	if _, err := nc.Snapshot(); err == nil {
		t.Error("Snapshot accepted a handler without wire.StateCodec")
	}
}
