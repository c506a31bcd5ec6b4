package wire

import (
	"fmt"
	"math/bits"
	"sync"
)

// Seg references a variable-length []int32 segment inside an Arena. It is
// a pointer-free 8-byte handle — (chunk, offset) packed with a length —
// so Bodies, and the engine inbox/outbox/event buffers that carry them by
// value, contain no pointers at all: the GC neither scans them nor pays
// write barriers when they are copied. The zero Seg means "no segment".
type Seg struct {
	off uint32 // chunk index << chunkBits | word offset within the chunk
	n   int32  // length in words; 0 = no segment
}

// Len returns the segment length in words (0 for the zero Seg).
func (s Seg) Len() int { return int(s.n) }

// IsZero reports whether s references no segment.
func (s Seg) IsZero() bool { return s.n == 0 }

// Arena owns the backing store Seg handles point into and recycles
// released segments, the same way the engines' outbox and inbox buffers
// recycle their capacity: once a run reaches steady state, Alloc stops
// hitting the heap entirely.
//
// Storage is chunked — chunks never move once allocated — so the []int32
// view returned by Alloc (and by Data) stays valid until the segment is
// released. Segments are carved at power-of-two granularity; Release
// files them into per-class free lists for reuse. A released segment must
// not be released again or read afterwards — see package wire for the
// ownership rules the engines enforce.
//
// An Arena is safe for concurrent use (the lockstep runner's worker pool
// allocates from several goroutines). The zero value is ready to use.
type Arena struct {
	mu     sync.Mutex
	chunks [][]int32
	std    []bool             // std[i]: chunks[i] is a standard bump chunk (not a dedicated oversize chunk)
	free   [maxClass][]uint32 // released segment offsets, by size class
	cursor int                // bump offset into the current standard chunk
	last   int                // 1 + index of the current standard chunk; 0 = none

	carves, recycles uint64
	live             int // outstanding segments: allocations minus releases
}

// chunkBits sizes a standard chunk: 2^chunkBits words (256 KiB). Segments
// of a larger class get a dedicated chunk of exactly their class size.
const chunkBits = 16

// maxClass bounds the size classes; the largest segment is 2^(maxClass-1)
// words (~128 MiB), far beyond any message payload.
const maxClass = 25

// class returns the smallest c with 1<<c >= n.
func class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Alloc carves a zeroed segment of length n and returns its handle plus a
// writable view. The view stays valid until Release. For n <= 0 it
// returns the zero Seg and a nil view.
func (a *Arena) Alloc(n int) (Seg, []int32) {
	if n <= 0 {
		return Seg{}, nil
	}
	c := class(n)
	if c >= maxClass {
		panic(fmt.Sprintf("wire: segment of %d words exceeds the arena's maximum", n))
	}
	a.mu.Lock()
	a.live++
	if l := a.free[c]; len(l) > 0 {
		off := l[len(l)-1]
		a.free[c] = l[:len(l)-1]
		a.recycles++
		view := a.viewLocked(off, n)
		a.mu.Unlock()
		for i := range view {
			view[i] = 0
		}
		return Seg{off: off, n: int32(n)}, view
	}
	a.carves++
	size := 1 << c
	var off uint32
	if c >= chunkBits {
		// Oversize class: dedicated chunk. It is tracked as non-standard
		// even when its size happens to equal a standard chunk's
		// (c == chunkBits), so the bump cursor can never re-carve it while
		// its segment is live.
		a.appendChunkLocked(size, false)
		off = uint32(len(a.chunks)-1) << chunkBits
	} else {
		if a.last == 0 || a.cursor+size > 1<<chunkBits {
			a.advanceChunkLocked()
		}
		off = uint32(a.last-1)<<chunkBits | uint32(a.cursor)
		a.cursor += size
	}
	view := a.viewLocked(off, n)
	a.mu.Unlock()
	return Seg{off: off, n: int32(n)}, view
}

// advanceChunkLocked moves the bump cursor to the next standard-size chunk:
// after a Reset the existing chunks are re-carved in order (oversize chunks
// interleaved in the table are skipped); only when none remain does the
// table grow.
func (a *Arena) advanceChunkLocked() {
	for i := a.last; i < len(a.chunks); i++ {
		if a.std[i] {
			a.last = i + 1
			a.cursor = 0
			return
		}
	}
	a.appendChunkLocked(1<<chunkBits, true)
	a.last = len(a.chunks)
	a.cursor = 0
}

// Reset invalidates every outstanding handle and rearms the arena for a
// fresh run while keeping its standard chunks for reuse — the engine-reuse
// analogue of the per-segment free lists. Oversize chunks (dedicated to a
// single large segment) are dropped so repeated runs with occasional big
// payloads do not accumulate them. All views and Segs obtained before
// Reset are dead afterwards.
func (a *Arena) Reset() {
	a.mu.Lock()
	// Scrub only the carved prefix — the chunks the bump cursor walked
	// through this cycle, the current one up to its cursor. Everything
	// beyond the frontier is still zero (fresh from make, or scrubbed by
	// an earlier Reset and never re-carved), and Alloc's bump path hands
	// out views without zeroing, so this restores its zeroed-storage
	// contract at cost proportional to use, not to retained capacity.
	for i := 0; i < a.last && i < len(a.chunks); i++ {
		ch := a.chunks[i]
		if !a.std[i] {
			continue // oversize: dropped below
		}
		if i == a.last-1 {
			ch = ch[:a.cursor]
		}
		for j := range ch {
			ch[j] = 0
		}
	}
	kept := a.chunks[:0]
	for i, ch := range a.chunks {
		if a.std[i] {
			kept = append(kept, ch)
		}
	}
	for i := len(kept); i < len(a.chunks); i++ {
		a.chunks[i] = nil
	}
	a.chunks = kept
	a.std = a.std[:len(kept)]
	for i := range a.std {
		a.std[i] = true
	}
	for c := range a.free {
		a.free[c] = a.free[c][:0]
	}
	a.cursor = 0
	a.last = 0
	if len(kept) > 0 {
		a.last = 1
	}
	a.live = 0
	a.mu.Unlock()
}

// appendChunkLocked grows the chunk table, guarding the handle encoding:
// the chunk index must fit the high bits of a Seg offset, or handles would
// silently wrap onto chunk 0's storage. Hitting the bound means ~16 GiB of
// live segments — a leak, not a workload — so fail loudly like the
// size-class guard does.
func (a *Arena) appendChunkLocked(size int, standard bool) {
	if len(a.chunks) >= 1<<(32-chunkBits) {
		panic(fmt.Sprintf("wire: arena exceeded %d chunks (segments are being leaked, not released)", 1<<(32-chunkBits)))
	}
	a.chunks = append(a.chunks, make([]int32, size))
	a.std = append(a.std, standard)
}

func (a *Arena) viewLocked(off uint32, n int) []int32 {
	chunk := a.chunks[off>>chunkBits]
	i := int(off & (1<<chunkBits - 1))
	return chunk[i : i+n : i+n]
}

// Data resolves a handle to its segment contents. The view is read/write
// and stays valid until the segment is released. The zero Seg yields nil.
func (a *Arena) Data(s Seg) []int32 {
	if s.n == 0 {
		return nil
	}
	a.mu.Lock()
	v := a.viewLocked(s.off, int(s.n))
	a.mu.Unlock()
	return v
}

// Release returns a segment to the arena for reuse. Releasing the zero
// Seg is a no-op. The caller must not use the handle (or any view of it)
// afterwards.
func (a *Arena) Release(s Seg) {
	if s.n == 0 {
		return
	}
	c := class(int(s.n))
	a.mu.Lock()
	a.free[c] = append(a.free[c], s.off)
	a.live--
	a.mu.Unlock()
}

// Stats reports how many Alloc calls carved fresh storage and how many
// were served from the free lists.
func (a *Arena) Stats() (carves, recycles uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.carves, a.recycles
}

// Live reports the number of outstanding segments — allocated and neither
// released nor invalidated by Reset. Leak tests pin it: after a run whose
// every message lifecycle completed, it should be exactly the number of
// segments intentionally retained (usually zero).
func (a *Arena) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.live
}

// Carve hands out k zeroed elements of *pool as a slice that never moves,
// refilling the pool with room for four such requests when it runs short.
// Per-node protocol state carves its records this way: one allocation
// per four records instead of one each, and no record is ever relocated.
func Carve[T any](pool *[]T, k int) []T {
	if len(*pool) < k {
		*pool = make([]T, 4*k)
	}
	s := (*pool)[:k:k]
	*pool = (*pool)[k:]
	return s
}
