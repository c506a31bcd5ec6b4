package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/wire"
)

// FuzzShardFrameRoundTrip drives the cross-shard event frame codec:
// encode out of one arena, decode (re-home) into another, and require the
// event to survive bit-for-bit — including oversize segments straddling
// the arena's chunk-class boundary (1<<16 words), where the copy spans
// non-contiguous chunks.
func FuzzShardFrameRoundTrip(f *testing.F) {
	f.Add(uint8(0), int32(10), int32(0), int32(3), int32(9), uint16(1), int64(42), int64(-7), 0)
	f.Add(uint8(1), int32(11), int32(2), int32(0), int32(1), uint16(2), int64(1), int64(2), 48)
	// The chunk-class boundary, one under, one over.
	f.Add(uint8(0), int32(12), int32(1), int32(5), int32(6), uint16(3), int64(0), int64(9), 65535)
	f.Add(uint8(0), int32(12), int32(1), int32(5), int32(6), uint16(3), int64(0), int64(9), 65536)
	f.Add(uint8(0), int32(12), int32(1), int32(5), int32(6), uint16(3), int64(0), int64(9), 65537)
	f.Fuzz(func(t *testing.T, kindSel uint8, proto, stage, src, dst int32, bkind uint16, a, b int64, segWords int) {
		kind := uint8(async.ShardEvDeliver)
		if kindSel&1 == 1 {
			kind = async.ShardEvAckArrive
		}
		if segWords < 0 {
			segWords = -segWords
		}
		segWords %= 1 << 17
		body := wire.Body{Kind: wire.Kind(bkind), A: a, B: b, C: a ^ b, D: -a}
		var sa wire.Arena
		if segWords > 0 {
			seg, w := sa.Alloc(segWords)
			for i := range w {
				w[i] = int32(a) ^ int32(i)
			}
			body.Seg = seg
		}
		m := async.Msg{Proto: async.Proto(proto), Stage: int(stage), Body: body}
		frame := appendEventFrame(nil, kind, graph.NodeID(src), graph.NodeID(dst), m, &sa)

		var da wire.Arena
		gotKind, gotSrc, gotDst, gotM, used, err := decodeEventFrame(frame, &da)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if used != len(frame) {
			t.Fatalf("decode consumed %d of %d bytes", used, len(frame))
		}
		if gotKind != kind || gotSrc != graph.NodeID(src) || gotDst != graph.NodeID(dst) {
			t.Fatalf("envelope (%d,%d,%d) != (%d,%d,%d)", gotKind, gotSrc, gotDst, kind, src, dst)
		}
		if gotM.Proto != m.Proto || gotM.Stage != m.Stage {
			t.Fatalf("msg header (%d,%d) != (%d,%d)", gotM.Proto, gotM.Stage, m.Proto, m.Stage)
		}
		wantB, gotB := body, gotM.Body
		wantB.Seg, gotB.Seg = wire.Seg{}, wire.Seg{}
		if wantB != gotB {
			t.Fatalf("body %+v != %+v", gotB, wantB)
		}
		if gotM.Body.Seg.Len() != segWords {
			t.Fatalf("segment re-homed to %d words, want %d", gotM.Body.Seg.Len(), segWords)
		}
		if segWords > 0 {
			w := da.Data(gotM.Body.Seg)
			for i, x := range w {
				if x != int32(a)^int32(i) {
					t.Fatalf("segment word %d = %d, want %d", i, x, int32(a)^int32(i))
				}
			}
			da.Release(gotM.Body.Seg)
		}
		if live := da.Live(); live != 0 {
			t.Fatalf("receiving arena holds %d live segments after release", live)
		}

		// Any strict prefix must fail cleanly, never decode garbage.
		for _, cut := range []int{0, eventFrameHead - 1, len(frame) - 1} {
			if cut < 0 || cut >= len(frame) {
				continue
			}
			var ta wire.Arena
			if _, _, _, _, _, err := decodeEventFrame(frame[:cut], &ta); err == nil {
				t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(frame))
			}
			if ta.Live() != 0 {
				t.Fatalf("failed decode leaked %d segments", ta.Live())
			}
		}
	})
}

// FuzzOpenShardSnapshot holds the checkpoint-file preamble to "an error,
// or a header plus frames that re-seal to the same bytes — never a
// panic". The fuzzer mutates the sealed container's payload (the header
// JSON and the length-prefixed frames) and the target seals it, so the
// checksum never shields the parser.
func FuzzOpenShardSnapshot(f *testing.F) {
	path := filepath.Join(f.TempDir(), "ckpt.bin")
	if _, err := Run(Config{GraphSpec: "grid:6x6", Workload: "flood", Adversary: "random:7",
		Shards: 2, SnapshotEvery: 40, SnapshotPath: path}); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := openShardSnapshot(data); err != nil {
		f.Fatalf("a real checkpoint is rejected: %v", err)
	}
	real, err := wire.OpenSnapshot(data)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	// A frame count no payload can hold: it must be an error, not a
	// makeslice panic.
	hb := []byte(`{"GraphSpec":"grid:2x2","Adversary":"fixed:1","Faults":"","Workload":"flood","Sources":null,"SegWords":0,"KeepTrace":false,"Shards":4611686018427387904,"NextSeq":0,"Steps":0}`)
	f.Add(append(appendU32(nil, uint32(len(hb))), hb...))
	f.Add([]byte{})
	f.Add(appendU32(nil, 1<<31))
	f.Fuzz(func(t *testing.T, payload []byte) {
		sealed := wire.SealSnapshot(payload)
		hdr, frames, err := openShardSnapshot(sealed)
		if err != nil {
			return
		}
		again, err := sealShardSnapshot(hdr, frames)
		if err != nil {
			t.Fatalf("accepted header does not re-marshal: %v", err)
		}
		if !bytes.Equal(again, sealed) {
			t.Fatalf("accepted checkpoint re-seals to different bytes:\n got %x\nwant %x", again, sealed)
		}
	})
}
