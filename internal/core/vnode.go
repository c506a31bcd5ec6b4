package core

import (
	"fmt"

	"repro/internal/graph"
)

// vnode is one virtual node (v, pulse) of the execution forest (§5.2): the
// pulse-π send-step of a physical node. It is created tentatively at the
// first pulse-(π-1) trigger (message received, or own send at π-1) and
// evaluated — the synchronous algorithm run and its pulse-π messages
// released — when Go-Ahead(π) arrives.
type vnode struct {
	pulse int

	// Execution-forest parentage. Originator vnodes (pulse 0) have neither.
	parentPhys graph.NodeID
	parentSelf bool
	hasParent  bool

	// evaluated: Go-Ahead(pulse) processed and the algorithm's Pulse run.
	evaluated bool
	// sentAny: the algorithm sent >= 1 message at this pulse.
	sentAny bool
	// outstandingReplies counts sent pulse-π messages not yet answered
	// with a chosen/declined reply.
	outstandingReplies int

	// childPhys lists neighbors whose (w, π+1) chose this vnode as parent.
	childPhys []graph.NodeID
	// selfChild: (v, π+1) exists with this vnode as parent.
	selfChild bool

	// q holds one safety-convergecast state per tracked pulse, aligned
	// with Schedule.Tracked(pulse) (ascending). It never resizes, so a
	// *qstate stays valid across re-entrant callbacks.
	q []qstate
}

// qstate tracks the q-status convergecast at one vnode: resolved when the
// vnode's own sends are all answered and every execution-forest child has
// reported; ready when the subtree contains a pulse-q vnode (and, per the
// report semantics of §4.1.2, everything of pulse < q in it is safe).
type qstate struct {
	q               int
	reports         int32
	gateOutstanding int32 // sessions still registering before forwarding
	anyReady        bool
	resolved        bool
	ready           bool
	forwarded       bool
	// GA routing: whether the self child and which neighbors reported
	// q-ready (readyPhys).
	readySelf bool
	// Wave registration of session q, owned by the vnode of pulse
	// prev2(q): whether every cluster confirmed, clusters awaiting
	// Registered, and clusters awaiting GoAhead.
	registered     bool
	regOutstanding int32
	gaOutstanding  int32
	readyPhys      []graph.NodeID
}

func newVnode(s *Schedule, p int) *vnode {
	tracked := s.Tracked(p)
	v := &vnode{pulse: p, parentPhys: -1, q: make([]qstate, len(tracked))}
	for i, q := range tracked {
		v.q[i].q = q
	}
	return v
}

// answersDone reports whether the vnode's children set is final: it has
// evaluated (so its sends happened) and every send was answered.
func (v *vnode) answersDone() bool {
	return v.evaluated && v.outstandingReplies == 0
}

// childCount returns the final number of execution-forest children; only
// meaningful once answersDone.
func (v *vnode) childCount() int {
	n := len(v.childPhys)
	if v.selfChild {
		n++
	}
	return n
}

func (v *vnode) qstate(q int) *qstate {
	lo, hi := 0, len(v.q)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); v.q[mid].q < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.q) && v.q[lo].q == q {
		return &v.q[lo]
	}
	panic(fmt.Sprintf("core: vnode pulse %d has no q-state for %d", v.pulse, q))
}
