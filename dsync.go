// Package dsync is the public API of this reproduction of "A Near-Optimal
// Deterministic Distributed Synchronizer" (Ghaffari & Trygub, PODC 2023).
//
// It exposes:
//
//   - graph construction (re-exported from the graph substrate),
//   - the lockstep synchronous runner for event-driven algorithms,
//   - the paper's deterministic synchronizer plus Awerbuch's α/β/γ,
//   - the asynchronous BFS family of §4,
//   - ready-made deterministic asynchronous leader election and MST
//     (Corollaries 1.2–1.4),
//   - and the state plane: versioned snapshot / restore / replay of
//     stepwise runs (NewSynchronizedRun, NewLockstepRun, Replay).
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package dsync

import (
	"repro/internal/abfs"
	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// Re-exported substrate types.
type (
	// Body is the typed wire payload every message carries: a Kind tag,
	// fixed integer words (A–D), and an optional arena-backed segment.
	// Plain value end to end — no boxing on the hot path (package wire).
	Body = wire.Body
	// Kind tags a Body's message type within its algorithm's namespace.
	Kind = wire.Kind
	// Arena recycles variable-length Body segments (API.Arena).
	Arena = wire.Arena
	// Seg is a pointer-free handle referencing an Arena segment.
	Seg = wire.Seg
	// Graph is an undirected network.
	Graph = graph.Graph
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// EdgeID indexes the edge table of a Graph.
	EdgeID = graph.EdgeID
	// LinkID is a dense directed-link identifier (see graph.LinkID).
	LinkID = graph.LinkID
	// Adversary chooses asynchronous message delays.
	Adversary = async.Adversary
	// AsyncResult summarizes an asynchronous run.
	AsyncResult = async.Result
	// TraceEntry is one delivery-trace record; its Kind distinguishes
	// delivered messages from ones abandoned by the fault plane.
	TraceEntry = async.TraceEntry
	// TraceKind tags a TraceEntry (TraceDeliver / TraceUndeliverable).
	TraceKind = async.TraceKind
	// SyncResult summarizes a lockstep synchronous run.
	SyncResult = syncrun.Result
	// Algorithm is an event-driven synchronous node program.
	Algorithm = syncrun.Handler
	// API is the node-side surface an Algorithm sees.
	API = syncrun.API
	// Incoming is one received message.
	Incoming = syncrun.Incoming
	// Layered is a layered sparse cover family.
	Layered = cover.Layered
	// BFSResult is the per-node BFS output.
	BFSResult = apps.BFSResult
	// MSTResult is the per-node MST output.
	MSTResult = apps.MSTResult
	// TBFSResult is the per-node thresholded-BFS output.
	TBFSResult = apps.TBFSResult
	// Unreachable marks nodes beyond a BFS threshold (the paper's ∞).
	Unreachable = abfs.Unreachable
)

// Graph generators (deterministic; random families take a seed). The
// implicit generators — Grid3D, PowerLaw, RingOfCliques, and the textual
// GraphFromSpec front end — emit sorted CSR directly with exact
// preallocation, validate against the 32-bit id space, and return an error
// instead of allocating when a spec would overflow it.
var (
	NewGraph           = graph.New
	Path               = graph.Path
	Cycle              = graph.Cycle
	Grid               = graph.Grid
	Star               = graph.Star
	Complete           = graph.Complete
	CompleteBinaryTree = graph.CompleteBinaryTree
	RandomConnected    = graph.RandomConnected
	Dumbbell           = graph.Dumbbell
	Lollipop           = graph.Lollipop
	StarOfPaths        = graph.StarOfPaths
	WithRandomWeights  = graph.WithRandomWeights
	Grid3D             = graph.Grid3D
	PowerLaw           = graph.PowerLaw
	RingOfCliques      = graph.RingOfCliques
	GraphFromSpec      = graph.FromSpec
)

// Tag returns a words-free Body of the given kind (pure signal messages).
func Tag(k Kind) Body { return wire.Tag(k) }

// Delay adversaries for the asynchronous model (τ = 1 normalization).
func FixedDelays(d float64) Adversary    { return async.Fixed{D: d} }
func RandomDelays(seed uint64) Adversary { return async.SeededRandom{Seed: seed} }
func StandardAdversaries(n int, seed uint64) []Adversary {
	return async.StandardAdversaries(n, seed)
}

// Fault plane: seeded, pure-function crash/link/drop schedules wrapped
// around any delay adversary. Fault decisions are byte-identical across
// every shard count.
type FaultSchedule = async.FaultSchedule

// ParseFaultSpec parses a fault-schedule spec such as
// "crash:p=0.01,drop:p=0.05,budget=3,seed=7"; "" and "none" yield nil
// (fault-free).
func ParseFaultSpec(spec string) (*FaultSchedule, error) { return async.ParseFaultSpec(spec) }

// WithFaults wraps adv in the fault schedule (returns adv unchanged when
// fs is nil or inert).
func WithFaults(adv Adversary, fs *FaultSchedule) Adversary { return async.WithFaults(adv, fs) }

// StandardFaultSchedules returns the deterministic fault-schedule matrix
// the fault tests and E17 sweep share.
func StandardFaultSchedules(seed uint64) []*FaultSchedule {
	return async.StandardFaultSchedules(seed)
}

// Trace-entry kinds.
const (
	TraceDeliver       = async.TraceDeliver
	TraceUndeliverable = async.TraceUndeliverable
)

// RunSync executes an event-driven synchronous algorithm in lockstep rounds
// and measures T(A) and M(A). Handlers own their node's state and must not
// share mutable state across nodes.
func RunSync(g *Graph, mk func(NodeID) Algorithm) SyncResult {
	return syncrun.New(g, mk).Run()
}

// Synchronize runs the algorithm under the paper's deterministic
// synchronizer (Theorem 1.1 / 5.5): the asynchronous execution produces
// exactly the synchronous outputs. bound must exceed the last pulse at
// which the algorithm sends.
func Synchronize(g *Graph, bound int, adv Adversary, mk func(NodeID) Algorithm) AsyncResult {
	return core.Synchronize(core.Config{Graph: g, Bound: bound, Adversary: adv}, mk)
}

// SynchronizeWithCovers is Synchronize with prebuilt layered covers
// (amortize cover construction across runs; see BuildCovers).
func SynchronizeWithCovers(g *Graph, bound int, adv Adversary, l *Layered,
	mk func(NodeID) Algorithm) AsyncResult {
	return core.Synchronize(core.Config{Graph: g, Bound: bound, Adversary: adv, Layered: l}, mk)
}

// BuildCovers constructs the layered sparse covers the synchronizer needs
// for the given pulse bound (the synchronizer's initialization). For
// finalized graphs, results are memoized per (graph, cover radius) and
// the returned value may be shared with concurrent runs — treat it as
// immutable. ResetCoverCache drops the memoized covers.
func BuildCovers(g *Graph, bound int) *Layered { return core.BuildLayeredFor(g, bound) }

// ResetCoverCache releases every layered cover memoized by BuildCovers /
// Synchronize, for long-lived processes that sweep many graphs.
func ResetCoverCache() { core.ResetCoverCache() }

// SynchronizeUnknownBound is the Theorem 5.4 setting — no bound on T(A) is
// known: doubling attempts until one completes. Returns the result and the
// discovered pulse bound.
func SynchronizeUnknownBound(g *Graph, adv Adversary, mk func(NodeID) Algorithm) (AsyncResult, int) {
	return core.SynchronizeUnknownBound(g, adv, mk)
}

// Baseline synchronizers (Appendix A).
var (
	// SynchronizeAlpha: O(1) time overhead, Θ(m) messages per pulse.
	SynchronizeAlpha = core.SynchronizeAlpha
	// SynchronizeBeta: Θ(D) time per pulse, Θ(n) messages per pulse.
	SynchronizeBeta = core.SynchronizeBeta
	// SynchronizeGamma: the cluster-based tradeoff between α and β.
	SynchronizeGamma = core.SynchronizeGamma
)

// NewBFS returns the synchronous (multi-)source BFS algorithm of
// Corollary 1.2 for use with RunSync or any synchronizer.
func NewBFS(sources []NodeID) func(NodeID) Algorithm {
	return func(NodeID) Algorithm { return &apps.BFS{Sources: sources} }
}

// NewFlood returns the flooding broadcast (each node outputs its hop
// distance from the source).
func NewFlood(source NodeID) func(NodeID) Algorithm {
	return func(NodeID) Algorithm { return &apps.Flood{Source: source} }
}

// NewEcho returns the flood-and-echo algorithm (the root outputs n).
func NewEcho(root NodeID) func(NodeID) Algorithm {
	return func(NodeID) Algorithm { return &apps.Echo{Root: root} }
}

// NewLeaderElection returns the §6 epoch algorithm plus the pulse bound it
// needs. The elected leader is the minimum node ID; every node outputs it.
func NewLeaderElection(g *Graph) (func(NodeID) Algorithm, int) {
	d := g.Diameter()
	if d < 1 {
		d = 1
	}
	layered := cover.BuildLayered(g, d, nil)
	spans := apps.LeaderSpansAll(g, layered)
	mk := func(NodeID) Algorithm { return &apps.Leader{Covers: layered, SpansAll: spans} }
	res := syncrun.New(g, mk).Run()
	return mk, res.Rounds + 2
}

// NewMST returns the Borůvka-style MST algorithm plus its pulse bound.
// Edge weights must be distinct (WithRandomWeights).
func NewMST(g *Graph) (func(NodeID) Algorithm, int) {
	tree := cover.BFSTreeCluster(g, 0)
	weights := make([]int64, g.M())
	for i := range weights {
		weights[i] = g.Weight(graph.EdgeID(i))
	}
	mk := func(NodeID) Algorithm { return &apps.MST{Barrier: tree, Weights: weights} }
	res := syncrun.New(g, mk).Run()
	return mk, res.Rounds + 2
}

// AsyncLeaderElection elects a leader asynchronously (Corollary 1.3):
// deterministic, Õ(D) time, Õ(m) messages. Every node outputs the leader.
func AsyncLeaderElection(g *Graph, adv Adversary) AsyncResult {
	mk, bound := NewLeaderElection(g)
	return Synchronize(g, bound, adv, mk)
}

// AsyncMST computes the minimum spanning tree asynchronously
// (Corollary 1.4). Every node outputs an MSTResult.
func AsyncMST(g *Graph, adv Adversary) AsyncResult {
	mk, bound := NewMST(g)
	return Synchronize(g, bound, adv, mk)
}

// AsyncBFS runs the complete asynchronous (multi-)source BFS of Theorems
// 4.23/4.24: Õ(D1) time, Õ(m) messages, no prior knowledge of D.
func AsyncBFS(g *Graph, sources []NodeID, adv Adversary) abfs.FullResult {
	return abfs.Full(g, sources, adv)
}

// ThresholdedBFS runs the τ-thresholded asynchronous BFS of Theorem 4.15;
// nodes beyond τ output Unreachable.
func ThresholdedBFS(g *Graph, sources []NodeID, tau int, adv Adversary) abfs.Result {
	return abfs.Thresholded(abfs.Config{Graph: g, Sources: sources, Threshold: tau, Adversary: adv})
}

// State plane: versioned snapshot / restore / replay. A snapshot is a
// sealed, pointer-free byte frame of a run's complete state, taken at an
// event boundary (asynchronous engine) or pulse boundary (lockstep
// runner). Restoring it into a handle built over the same graph and
// algorithm continues the run byte-identically to the uninterrupted one —
// so checkpoints can also fork and replay deterministically.
// Handlers participate via StateCodec; every shipped algorithm and the
// synchronizer stack implement it.
type (
	// SynchronizedRun is a stepwise synchronized execution handle
	// (async.Sim): RunSteps / Snapshot / Restore / FinishResult, or plain
	// Run to completion.
	SynchronizedRun = async.Sim
	// LockstepRun is a stepwise lockstep execution handle
	// (syncrun.Runner): RunPulses / Snapshot / Restore / FinishResult.
	LockstepRun = syncrun.Runner
	// StateCodec is the per-handler serialization contract snapshots are
	// built from (SaveState/LoadState over the wire codec).
	StateCodec = wire.StateCodec
)

// NewLockstepRun builds a stepwise lockstep runner over the synchronous
// algorithm: RunPulses(k) advances k pulses, Snapshot() checkpoints at the
// pulse boundary, FinishResult() closes a quiescent run.
func NewLockstepRun(g *Graph, mk func(NodeID) Algorithm) *LockstepRun {
	return syncrun.New(g, mk)
}

// NewSynchronizedRun assembles the paper's synchronizer stack over the
// synchronous algorithm without running it, for stepwise execution and
// checkpointing: RunSteps(k) advances k engine events, Snapshot()
// checkpoints between events, Run() finishes the run.
func NewSynchronizedRun(g *Graph, bound int, adv Adversary, mk func(NodeID) Algorithm) *SynchronizedRun {
	return core.NewSynchronizedSim(core.Config{Graph: g, Bound: bound, Adversary: adv}, mk)
}

// Replay restores a snapshot into the synchronized run handle and plays it
// to completion. Restore discards any state the handle held, so the same
// handle can replay the same snapshot repeatedly — deterministic replay
// debugging — or run snapshots taken at different points of one run.
func Replay(run *SynchronizedRun, snapshot []byte) (AsyncResult, error) {
	if err := run.Restore(snapshot); err != nil {
		return AsyncResult{}, err
	}
	return run.Run(), nil
}

// ReplayLockstep builds a fresh lockstep runner (a lockstep restore
// requires a pristine runner), restores the snapshot, and plays it to
// completion.
func ReplayLockstep(g *Graph, mk func(NodeID) Algorithm, snapshot []byte) (SyncResult, error) {
	r := syncrun.New(g, mk)
	if err := r.Restore(snapshot); err != nil {
		return SyncResult{}, err
	}
	return r.Run(), nil
}
