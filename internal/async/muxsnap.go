package async

import (
	"fmt"

	"repro/internal/wire"
)

// StateCodecProbe is an optional refinement for composite handlers whose
// snapshot support depends on their runtime composition: a Mux is only as
// serializable as the modules registered on it, which the type system
// cannot see. The engine consults the probe before trusting a handler's
// wire.StateCodec methods — a failing probe turns Snapshot into a clean
// error instead of a panic inside SaveState.
type StateCodecProbe interface {
	// StateCodecOK reports whether the handler's complete state is
	// serializable right now.
	StateCodecOK() bool
}

// Rebinder is an optional handler/module interface for state restore:
// Rebind is invoked after a snapshot is loaded into a resumed engine (one
// whose Init/Start phase already ran before the snapshot), re-establishing
// cached *Node references that Start would normally capture. Modules that
// never cache the node don't need it.
type Rebinder interface {
	Rebind(n *Node)
}

var (
	_ wire.StateCodec = (*Mux)(nil)
	_ StateCodecProbe = (*Mux)(nil)
	_ Rebinder        = (*Mux)(nil)
)

// eachUniqueModule visits registered modules in registration order, once
// per instance — a module registered under several protos (the
// synchronizer core owns both ProtoAlgo and ProtoTree) serializes once.
func (x *Mux) eachUniqueModule(fn func(p Proto, mod Module) bool) {
	for i, p := range x.order {
		mod := x.modules[p]
		dup := false
		for _, q := range x.order[:i] {
			if x.modules[q] == mod {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if !fn(p, mod) {
			return
		}
	}
}

// StateCodecOK implements StateCodecProbe: every registered module must
// carry a state codec (and pass its own probe, if it has one).
func (x *Mux) StateCodecOK() bool {
	ok := true
	x.eachUniqueModule(func(_ Proto, mod Module) bool {
		if _, is := mod.(wire.StateCodec); !is {
			ok = false
		} else if pr, is := mod.(StateCodecProbe); is && !pr.StateCodecOK() {
			ok = false
		}
		return ok
	})
	return ok
}

// SaveState implements wire.StateCodec: each unique module's state rides
// in its own blob, in registration order. Callers gate on StateCodecOK —
// a non-codec module here is a programming error and panics.
func (x *Mux) SaveState(e *wire.Enc) {
	x.eachUniqueModule(func(p Proto, mod Module) bool {
		sc, ok := mod.(wire.StateCodec)
		if !ok {
			panic(fmt.Sprintf("async: module %T (proto %d) does not implement wire.StateCodec", mod, p))
		}
		mark := e.BeginBlob()
		sc.SaveState(e)
		e.EndBlob(mark)
		return true
	})
}

// LoadState implements wire.StateCodec. The restoring Mux must have been
// built by the same constructor, so the registration order matches.
func (x *Mux) LoadState(d *wire.Dec) {
	x.eachUniqueModule(func(p Proto, mod Module) bool {
		sc, ok := mod.(wire.StateCodec)
		if !ok {
			d.Fail("async: module %T (proto %d) does not implement wire.StateCodec", mod, p)
			return false
		}
		end := d.BeginBlob()
		if d.Failed() {
			return false
		}
		sc.LoadState(d)
		d.EndBlob(end)
		return !d.Failed()
	})
}

// Rebind implements Rebinder, forwarding to modules that cache the node.
func (x *Mux) Rebind(n *Node) {
	x.eachUniqueModule(func(_ Proto, mod Module) bool {
		if rb, ok := mod.(Rebinder); ok {
			rb.Rebind(n)
		}
		return true
	})
}
