package dsync

import (
	"io"
	"os"
	"testing"

	"repro/internal/bench"
)

// Each benchmark regenerates one experiment table from DESIGN.md's index.
// The table prints once (to stdout) regardless of b.N; iterations beyond
// the first re-run the workload silently so -benchtime still measures it.

func runExperiment(b *testing.B, fn func(io.Writer)) {
	b.Helper()
	fn(os.Stdout)
	for i := 1; i < b.N; i++ {
		fn(io.Discard)
	}
}

func BenchmarkE1SynchronizerOverheads(b *testing.B) {
	runExperiment(b, bench.E1SynchronizerOverheads)
}

func BenchmarkE2BFSTimeVsD(b *testing.B) { runExperiment(b, bench.E2BFSTimeVsD) }

func BenchmarkE3BFSMessagesVsM(b *testing.B) { runExperiment(b, bench.E3BFSMessagesVsM) }

func BenchmarkE4MultiSourceD1(b *testing.B) { runExperiment(b, bench.E4MultiSourceD1) }

func BenchmarkE5LeaderElection(b *testing.B) { runExperiment(b, bench.E5LeaderElection) }

func BenchmarkE6MST(b *testing.B) { runExperiment(b, bench.E6MST) }

func BenchmarkE7RegistrationCongestion(b *testing.B) {
	runExperiment(b, bench.E7RegistrationCongestion)
}

func BenchmarkE8AlphaBlowup(b *testing.B) { runExperiment(b, bench.E8AlphaBlowup) }

func BenchmarkE9AdversaryRobustness(b *testing.B) {
	runExperiment(b, bench.E9AdversaryRobustness)
}

func BenchmarkE10CoverQuality(b *testing.B) { runExperiment(b, bench.E10CoverQuality) }

func BenchmarkE11StagePipelining(b *testing.B) { runExperiment(b, bench.E11StagePipelining) }

func BenchmarkE12GatherCost(b *testing.B) { runExperiment(b, bench.E12GatherCost) }

func BenchmarkE16Footprint(b *testing.B) { runExperiment(b, bench.E16Footprint) }
