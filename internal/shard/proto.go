// Package shard runs one bounded-lag async engine per OS process over a
// contiguous node partition and merges their executions into a result
// byte-identical to the single-process serial engine.
//
// The protocol is hub-and-spoke over unix-domain sockets with one round
// trip per global window:
//
//	worker k                       coordinator
//	--------                       -----------
//	JOIN{k}           ──────▶
//	                  ◀──────      HELLO{spec, cuts, self, adversary, ...}
//	ShardInit
//	FLUSH{log, minT}  ──────▶      k-way merge all logs by (trigT, trigSeq),
//	                               grant seqs in merge order, route remote
//	                  ◀──────      OPEN{wStart, grants, inbound frames}
//	ShardRunWindow
//	FLUSH{...}        ──────▶      ... until no shard has pending events ...
//	                  ◀──────      FINISH
//	RESULT{...}       ──────▶      merge per-shard results
//
// Correctness rests on the bounded-lag safety argument extended across
// processes: every event executed in window [wStart, wStart+MinDelay)
// schedules only events at t ≥ wStart+MinDelay (the adversary's declared
// MinDelay, enforced at dispatch, plus fl(t+d) monotonicity in exact
// floating point), so a window's staged schedule calls — sorted by their
// triggering event's (t, seq) — are exactly the calls the serial engine
// would issue, in its order. Merge keys are globally unique: trigSeq is a
// granted (hence unique) event seq during windows and the global node id
// during Init, and node ownership is disjoint. The coordinator's merge
// therefore assigns seqs exactly as the serial engine's schedule calls
// would, and seqs drive every tie-break downstream.
//
// Frames are raw copies of wire.Body plus the referenced arena segment's
// words (see wire.AppendBodySeg): serialization is memcpy. Segments are
// re-homed into the receiving engine's arena on the way in and released
// from the sender's on the way out, so each arena's Live() count settles
// to zero exactly as in a single-process run.
package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Message types. Every message is [type u8][payload len u32][payload],
// little-endian, same-machine only (the workers are re-execs of this very
// binary).
const (
	msgJoin byte = 1 + iota
	msgHello
	msgFlush
	msgOpen
	msgFinish
	msgResult
	// msgSnapFrame carries one worker's engine frame to the coordinator
	// when an OPEN's snapshot flag was set (worker → coordinator).
	msgSnapFrame
	// msgFrame ships one resumed worker its restored engine frame right
	// after HELLO (coordinator → worker).
	msgFrame
)

// maxMsgLen bounds a single protocol message; a 10M-node shard's flush
// stays far below this, so anything larger is a corrupt stream.
const maxMsgLen = 1 << 31

func writeMsg(w *bufio.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

func readMsg(r *bufio.Reader, buf []byte) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxMsgLen {
		return 0, nil, fmt.Errorf("shard: oversized %d-byte message", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return hdr[0], buf, nil
}

// Little-endian append/read helpers. The envelope fields go through
// encoding/binary; the Body+segment bulk goes through wire's memcpy
// codec.

func appendU8(b []byte, v uint8) []byte { return append(b, v) }

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendI32(b []byte, v int32) []byte { return appendU32(b, uint32(v)) }

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

// reader is a cursor over a received payload; short reads poison it and
// surface once at err().
type reader struct {
	b   []byte
	off int
	bad bool
}

func (r *reader) take(n int) []byte {
	if r.bad || n < 0 || n > len(r.b)-r.off {
		r.bad = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) u8() uint8 {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *reader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (r *reader) u64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (r *reader) i32() int32   { return int32(r.u32()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) done() bool   { return r.off == len(r.b) && !r.bad }
func (r *reader) err(what string) error {
	if r.bad {
		return fmt.Errorf("shard: truncated %s message", what)
	}
	if r.off != len(r.b) {
		return fmt.Errorf("shard: %d trailing bytes in %s message", len(r.b)-r.off, what)
	}
	return nil
}

// Event frames: one cross-shard event in flight. Layout:
//
//	kind u8 | proto i32 | stage i32 | src i32 | dst i32 | Body+segment
//
// The timestamp and granted seq travel in the enclosing envelope (the
// flush entry / open inbound record); the local LinkID deliberately does
// not travel — link ids are shard-local, so the receiver recomputes its
// own (see async.ShardInject).
const eventFrameHead = 1 + 4 + 4 + 4 + 4

func appendEventFrame(dst []byte, kind uint8, src, to graph.NodeID, m async.Msg, a *wire.Arena) []byte {
	dst = appendU8(dst, kind)
	dst = appendI32(dst, int32(m.Proto))
	dst = appendI32(dst, int32(m.Stage))
	dst = appendI32(dst, int32(src))
	dst = appendI32(dst, int32(to))
	return wire.AppendBodySeg(dst, m.Body, a)
}

// decodeEventFrame decodes one event frame, re-homing any segment into a.
// Returns the event fields, the bytes consumed, and an error on a
// malformed buffer.
func decodeEventFrame(b []byte, a *wire.Arena) (kind uint8, src, to graph.NodeID, m async.Msg, n int, err error) {
	if len(b) < eventFrameHead {
		return 0, 0, 0, m, 0, fmt.Errorf("shard: event frame truncated at %d bytes", len(b))
	}
	kind = b[0]
	m.Proto = async.Proto(int32(binary.LittleEndian.Uint32(b[1:])))
	m.Stage = int(int32(binary.LittleEndian.Uint32(b[5:])))
	src = graph.NodeID(int32(binary.LittleEndian.Uint32(b[9:])))
	to = graph.NodeID(int32(binary.LittleEndian.Uint32(b[13:])))
	body, used, err := wire.DecodeBodySeg(b[eventFrameHead:], a)
	if err != nil {
		return 0, 0, 0, async.Msg{}, 0, err
	}
	m.Body = body
	return kind, src, to, m, eventFrameHead + used, nil
}
