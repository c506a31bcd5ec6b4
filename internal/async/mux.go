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
type Mux struct {
	modules map[Proto]Module
	order   []Proto
}

var _ Handler = (*Mux)(nil)

// NewMux returns an empty Mux.
func NewMux() *Mux {
	return &Mux{modules: make(map[Proto]Module)}
}

// Register attaches mod to proto p. Registering the same proto twice panics.
func (x *Mux) Register(p Proto, mod Module) {
	if _, dup := x.modules[p]; dup {
		panic(fmt.Sprintf("async: proto %d registered twice", p))
	}
	x.modules[p] = mod
	x.order = append(x.order, p)
}

// Module returns the module registered for p, or nil.
func (x *Mux) Module(p Proto) Module { return x.modules[p] }

// Init implements Handler: starts modules in registration order.
func (x *Mux) Init(n *Node) {
	for _, p := range x.order {
		x.modules[p].Start(n)
	}
}

// Recv implements Handler.
func (x *Mux) Recv(n *Node, from graph.NodeID, m Msg) {
	mod := x.modules[m.Proto]
	if mod == nil {
		panic(fmt.Sprintf("async: node %d got message for unregistered proto %d", n.ID(), m.Proto))
	}
	mod.Recv(n, from, m)
}

// Ack implements Handler.
func (x *Mux) Ack(n *Node, to graph.NodeID, m Msg) {
	mod := x.modules[m.Proto]
	if mod == nil {
		panic(fmt.Sprintf("async: node %d got ack for unregistered proto %d", n.ID(), m.Proto))
	}
	mod.Ack(n, to, m)
}
