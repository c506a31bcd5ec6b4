// Package execpolicy holds the multi-process shard policy — how many
// shard processes a run gets when the caller does not choose — and the
// retained Auto shims the end-to-end benchmark still calls. Both
// engines run one in-process executor, the serial loop; multi-process
// sharding is the one parallel path.
package execpolicy

import "runtime"

// DefaultWorkers is a retained shim: perfbench passes it to AsyncAuto,
// which ignores it. It reports GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// AsyncChoice names the async engine's in-process executor.
type AsyncChoice int

const (
	// AsyncSerial: pop one event at a time on the calling goroutine — the
	// only in-process executor.
	AsyncSerial AsyncChoice = iota
	// AsyncWindows is a retained shim that AsyncAuto never returns: the
	// bounded-lag window executor it named was removed after losing to
	// serial on the one benchmark workload that ran it. perfbench still
	// names it.
	AsyncWindows
	// AsyncSpec is a retained shim that AsyncAuto never returns: the
	// speculative executor it named was removed after losing to serial on
	// every measured workload. perfbench still names it.
	AsyncSpec
)

// AsyncAuto is a retained shim for perfbench, which reports its answer as
// the executor a workload runs under: it always returns AsyncSerial, the
// engine's only in-process executor. Its arguments are ignored.
func AsyncAuto(workers, links int, lookahead float64, cloneable bool) AsyncChoice {
	return AsyncSerial
}

// MaxShards caps multi-process sharded runs: each shard is a whole OS
// process with its own graph plane, and past 8 ways the per-window
// coordinator round trip (a k-cursor merge plus 2k socket syscalls)
// outgrows the marginal process on the graphs that fit one machine.
const MaxShards = 8

// AutoShardLinks is the graph size (directed links) at which automatic
// sharding engages at all: below ~4M links a single in-process engine
// wins outright. On the million-node smoke graph (~5.9M links, just
// past the gate) the whole multi-process protocol costs ~1% at K=2 and
// ~3% at K=4 measured on one core (BENCH_7.json — the overhead floor,
// since timesharing workers re-serialize each window), so on real
// multi-core hosts the per-window critical path divides by K against
// low-single-digit protocol cost; the procs clamp below keeps
// single-core hosts at K=1 regardless.
const AutoShardLinks = 1 << 22

// AutoShardLinksPerShard keeps Auto from over-sharding mid-size graphs:
// every shard Auto volunteers must own at least this many links, so the
// shard count grows with the graph instead of jumping straight to the
// process cap.
const AutoShardLinksPerShard = 1 << 21

// AutoShards picks the shard count for a multi-process run when the
// caller does not choose: 1 (no sharding) below AutoShardLinks, then the
// largest count that keeps every shard at AutoShardLinksPerShard links,
// clamped to the machine's processors and MaxShards.
func AutoShards(procs, links int) int {
	if links < AutoShardLinks {
		return 1
	}
	k := links / AutoShardLinksPerShard
	if k > procs {
		k = procs
	}
	if k > MaxShards {
		k = MaxShards
	}
	if k < 1 {
		k = 1
	}
	return k
}
