package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Distributed snapshot. The coordinator checkpoints at a FLUSH barrier:
// after a window's grants and routed frames have been applied, every
// pending event lives in exactly one shard's queue and no schedule call is
// staged anywhere, so the union of the K engine frames is the complete
// global state (the classic consistent-cut argument, with the barrier
// standing in for marker messages). The OPEN message carries a snapshot
// flag; flagged workers serialize their engine (async.ShardSnapshotFrame)
// and send it back before running the window, and the coordinator seals
// header + K length-prefixed frames into one file.
//
// Resume rebuilds the run from the file alone: the header replays the
// HELLO configuration, and the frames — relocatable by construction — are
// re-split across the resumed partition (async.ResplitEngineFrames), so a
// checkpoint taken at K shards restores at any K′.

// snapHeader is the sealed file's JSON preamble: everything a resumed
// coordinator needs to rebuild workers byte-identically.
type snapHeader struct {
	GraphSpec string
	Adversary string
	Faults    string
	Workload  string
	Sources   []graph.NodeID
	SegWords  int
	KeepTrace bool
	// Shards is K at checkpoint time (the frame count).
	Shards int
	// NextSeq is the coordinator's grant counter at the barrier; the
	// resumed merge loop continues from it.
	NextSeq uint64
	// Steps is the cumulative executed-event count at the barrier
	// (progress reporting; the authoritative counters ride in frame 0).
	Steps uint64
}

// sealShardSnapshot assembles the checkpoint payload:
//
//	u32 header len | header JSON | K × (u32 frame len | frame)
//
// and seals it with the wire container (magic, version, checksum).
func sealShardSnapshot(hdr *snapHeader, frames [][]byte) ([]byte, error) {
	hb, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	payload := appendU32(nil, uint32(len(hb)))
	payload = append(payload, hb...)
	for _, f := range frames {
		payload = appendU32(payload, uint32(len(f)))
		payload = append(payload, f...)
	}
	return wire.SealSnapshot(payload), nil
}

// openShardSnapshot parses a sealed checkpoint into its header and the
// per-shard engine frames. The parse is exact: an accepted file re-seals
// to the same bytes. The header must be in the form sealShardSnapshot
// writes, and the frame count must fit the payload before anything is
// allocated for it.
func openShardSnapshot(data []byte) (*snapHeader, [][]byte, error) {
	payload, err := wire.OpenSnapshot(data)
	if err != nil {
		return nil, nil, err
	}
	rd := reader{b: payload}
	hb := rd.take(int(rd.u32()))
	if rd.bad {
		return nil, nil, fmt.Errorf("shard: truncated snapshot header")
	}
	var hdr snapHeader
	if err := json.Unmarshal(hb, &hdr); err != nil {
		return nil, nil, fmt.Errorf("shard: bad snapshot header: %v", err)
	}
	if canon, err := json.Marshal(&hdr); err != nil || !bytes.Equal(canon, hb) {
		return nil, nil, fmt.Errorf("shard: snapshot header is not in canonical form")
	}
	// Every frame carries at least its 4-byte length.
	if hdr.Shards < 1 || hdr.Shards > (len(rd.b)-rd.off)/4 {
		return nil, nil, fmt.Errorf("shard: snapshot of %d shards in %d payload bytes", hdr.Shards, len(rd.b)-rd.off)
	}
	frames := make([][]byte, hdr.Shards)
	for i := range frames {
		frames[i] = rd.take(int(rd.u32()))
		if rd.bad {
			return nil, nil, fmt.Errorf("shard: snapshot truncated at frame %d of %d", i, hdr.Shards)
		}
	}
	if err := rd.err("snapshot"); err != nil {
		return nil, nil, err
	}
	return &hdr, frames, nil
}

// writeSnapshotFile seals and atomically replaces path (write-temp-rename,
// so a crash mid-checkpoint never corrupts the previous checkpoint).
func writeSnapshotFile(path string, hdr *snapHeader, frames [][]byte) error {
	data, err := sealShardSnapshot(hdr, frames)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// loadResume reads a checkpoint file and folds its header into cfg: the
// workload identity (graph, adversary, faults, workload, sources, trace
// flag) comes from the file — a resume must continue the checkpointed run,
// not a reconfigured one — while execution choices (Shards, Launch,
// snapshot cadence, ceilings) stay the caller's. The frames are re-split
// for the resumed shard count once the partition is known (coord.run).
func loadResume(cfg Config) (Config, *snapHeader, [][]byte, error) {
	data, err := os.ReadFile(cfg.ResumeFrom)
	if err != nil {
		return cfg, nil, nil, err
	}
	hdr, frames, err := openShardSnapshot(data)
	if err != nil {
		return cfg, nil, nil, fmt.Errorf("shard: %s: %v", filepath.Base(cfg.ResumeFrom), err)
	}
	cfg.GraphSpec = hdr.GraphSpec
	cfg.Adversary = hdr.Adversary
	cfg.Faults = hdr.Faults
	cfg.Workload = hdr.Workload
	cfg.Sources = hdr.Sources
	cfg.SegWords = hdr.SegWords
	cfg.KeepTrace = hdr.KeepTrace
	if hdr.GraphSpec == "" && cfg.Graph == nil {
		return cfg, nil, nil, fmt.Errorf("shard: snapshot carries no graph spec and no pre-built graph was supplied")
	}
	return cfg, hdr, frames, nil
}

// resplitForResume routes the checkpoint's frames onto the resumed
// partition (possibly a different K) via the engine-frame re-splitter.
func resplitForResume(frames [][]byte, part graph.Partition, nextSeq uint64) ([][]byte, error) {
	return async.ResplitEngineFrames(frames, part.K(), part.Owner, nextSeq)
}
