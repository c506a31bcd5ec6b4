package async

import "repro/internal/graph"

// Adversary chooses message delays. Delays must lie in (0, 1]: 1 is the
// normalized time unit τ of the model (§1.1). The adversary sees everything
// the model allows it to see — endpoints, a per-link sequence number, and
// the protocol tag — and must be deterministic so experiments reproduce.
//
// Every adversary additionally declares a positive lower bound on its
// delays via MinDelay. The model itself guarantees such a bound exists
// (delays are drawn from a fixed deterministic rule over a finite value
// set), and the multi-process shard protocol turns it into lookahead: all
// events within one MinDelay-wide time window are causally independent
// across nodes, so shards may execute them concurrently. The engine
// enforces the declaration at dispatch time — returning a delay below the
// declared bound panics, sharded or not.
type Adversary interface {
	// Delay returns the transit delay for the seq-th transmission (message
	// or ack) on the directed link from→to.
	Delay(from, to graph.NodeID, seq uint64, p Proto) float64
	// MinDelay returns a positive lower bound d_min <= 1 such that every
	// Delay call returns at least d_min. It is the conservative-simulation
	// lookahead: larger bounds admit wider shard windows.
	MinDelay() float64
	// Name identifies the adversary in experiment tables.
	Name() string
}

// Fixed delays every message by exactly D.
type Fixed struct{ D float64 }

// Delay implements Adversary.
func (f Fixed) Delay(_, _ graph.NodeID, _ uint64, _ Proto) float64 { return clamp(f.D) }

// MinDelay implements Adversary: every delay is exactly D (clamped), so the
// lookahead is the whole delay — the widest shard windows.
func (f Fixed) MinDelay() float64 { return clamp(f.D) }

// Name implements Adversary.
func (f Fixed) Name() string { return "fixed" }

// SeededRandom draws each delay independently from (0,1], deterministically
// from (seed, from, to, seq).
type SeededRandom struct{ Seed uint64 }

// Delay implements Adversary.
func (a SeededRandom) Delay(from, to graph.NodeID, seq uint64, _ Proto) float64 {
	h := mix(a.Seed, uint64(from)*0x9E3779B97F4A7C15^uint64(to)*0xC2B2AE3D27D4EB4F^seq)
	// Map to (0,1]: (h mod 2^20 + 1) / 2^20.
	return float64(h%(1<<20)+1) / (1 << 20)
}

// MinDelay implements Adversary: the delay map's smallest value is
// (0+1)/2^20.
func (a SeededRandom) MinDelay() float64 { return 1.0 / (1 << 20) }

// Name implements Adversary.
func (a SeededRandom) Name() string { return "random" }

// Skew makes links toward low-ID nodes fast and links toward high-ID nodes
// slow, creating a persistent asymmetry in information propagation speed —
// the classic stress for synchronizer safety logic.
type Skew struct {
	// Cut separates fast from slow destinations.
	Cut graph.NodeID
	// FastD is the delay toward nodes below Cut; slow links get 1.0.
	FastD float64
}

// Delay implements Adversary.
func (a Skew) Delay(_, to graph.NodeID, _ uint64, _ Proto) float64 {
	if to < a.Cut {
		return clamp(a.FastD)
	}
	return 1.0
}

// MinDelay implements Adversary: min(FastD, 1), via the same clamping
// Delay applies (clamp never exceeds 1, and slow links pay exactly 1).
func (a Skew) MinDelay() float64 { return clamp(a.FastD) }

// Name implements Adversary.
func (a Skew) Name() string { return "skew" }

// Flaky alternates between near-instant and maximal delay per transmission
// on each link, maximizing cross-link reordering while still honoring the
// per-link FIFO that the ack discipline induces.
type Flaky struct{ Seed uint64 }

// Delay implements Adversary.
func (a Flaky) Delay(from, to graph.NodeID, seq uint64, _ Proto) float64 {
	h := mix(a.Seed, uint64(from)<<32^uint64(to)^seq<<7)
	if h&1 == 0 {
		return 1.0 / (1 << 16)
	}
	return 1.0
}

// MinDelay implements Adversary: the near-instant branch's 1/2^16.
func (a Flaky) MinDelay() float64 { return 1.0 / (1 << 16) }

// Name implements Adversary.
func (a Flaky) Name() string { return "flaky" }

// EdgeLottery assigns each directed link one fixed random speed for the
// whole run: some paths are persistently fast, others persistently slow.
type EdgeLottery struct{ Seed uint64 }

// Delay implements Adversary.
func (a EdgeLottery) Delay(from, to graph.NodeID, _ uint64, _ Proto) float64 {
	h := mix(a.Seed, uint64(from)*0xD6E8FEB86659FD93^uint64(to))
	return float64(h%(1<<16)+1) / (1 << 16)
}

// MinDelay implements Adversary: the speed map's smallest value is
// (0+1)/2^16.
func (a EdgeLottery) MinDelay() float64 { return 1.0 / (1 << 16) }

// Name implements Adversary.
func (a EdgeLottery) Name() string { return "edge-lottery" }

func clamp(d float64) float64 {
	if d <= 0 {
		return 1.0 / (1 << 20)
	}
	if d > 1 {
		return 1
	}
	return d
}

// mix is a 64-bit finalizer (splitmix64 style).
func mix(a, b uint64) uint64 {
	z := a + 0x9E3779B97F4A7C15 + b
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// StandardAdversaries returns the suite used by robustness experiments.
func StandardAdversaries(n int, seed uint64) []Adversary {
	return []Adversary{
		Fixed{D: 1},
		SeededRandom{Seed: seed},
		Skew{Cut: graph.NodeID(n / 2), FastD: 1.0 / 64},
		Flaky{Seed: seed ^ 0xABCD},
		EdgeLottery{Seed: seed ^ 0x1234},
	}
}
