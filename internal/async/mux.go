package async

import (
	"fmt"

	"repro/internal/graph"
)

// Module is a sub-protocol that can be composed with others on one node.
// It is the same shape as Handler, except Start replaces Init to avoid
// confusion about who owns simulator initialization.
type Module interface {
	Start(n *Node)
	Recv(n *Node, from graph.NodeID, m Msg)
	Ack(n *Node, to graph.NodeID, m Msg)
}

// Mux composes several Modules into one Handler, routing each message to
// the module registered for its Proto tag. The paper's algorithms are
// stacks of subroutines (covers, registration, gather, BFS, synchronizer
// core) sharing the same physical links; Mux is how one node hosts them.
// A stack registers a handful of protos, so dispatch scans them.
type Mux struct {
	protos []Proto  // registration order
	mods   []Module // mods[i] serves protos[i]
}

var _ Handler = (*Mux)(nil)

// NewMux returns an empty Mux.
func NewMux() *Mux { return &Mux{} }

// Register attaches mod to proto p. Registering the same proto twice panics.
func (x *Mux) Register(p Proto, mod Module) {
	if x.Module(p) != nil {
		panic(fmt.Sprintf("async: proto %d registered twice", p))
	}
	x.protos = append(x.protos, p)
	x.mods = append(x.mods, mod)
}

// Module returns the module registered for p, or nil.
func (x *Mux) Module(p Proto) Module {
	for i, q := range x.protos {
		if q == p {
			return x.mods[i]
		}
	}
	return nil
}

// Init implements Handler: starts modules in registration order.
func (x *Mux) Init(n *Node) {
	for _, mod := range x.mods {
		mod.Start(n)
	}
}

// Recv implements Handler.
func (x *Mux) Recv(n *Node, from graph.NodeID, m Msg) {
	x.route(n, m.Proto, "message").Recv(n, from, m)
}

// Ack implements Handler.
func (x *Mux) Ack(n *Node, to graph.NodeID, m Msg) {
	x.route(n, m.Proto, "ack").Ack(n, to, m)
}

// route returns the module registered for p; an unregistered p panics.
func (x *Mux) route(n *Node, p Proto, what string) Module {
	if mod := x.Module(p); mod != nil {
		return mod
	}
	panic(fmt.Sprintf("async: node %d got %s for unregistered proto %d", n.ID(), what, p))
}
