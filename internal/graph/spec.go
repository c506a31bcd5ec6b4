package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// FromSpec builds a graph from a compact textual description, so CLIs and
// experiments can select any generator and size without code changes.
//
// Accepted forms (sizes are decimal; x separates dimensions):
//
//	path:<n>                 path graph
//	cycle:<n>                cycle
//	grid:<rows>x<cols>       2-D grid
//	grid3d:<x>x<y>x<z>       3-D grid (implicit CSR)
//	star:<n>                 star
//	tree:<n>                 complete binary tree
//	complete:<n>             K_n
//	er:n=<n>,m=<m>[,seed=<s>]   random connected (spanning tree + extras)
//	pa:n=<n>,m=<m>[,seed=<s>]   power-law preferential attachment (implicit)
//	ring:k=<k>,c=<c>         ring of k c-cliques joined by road edges (implicit)
//
// Every size is validated before anything is allocated: a spec that
// would yield no nodes, a degenerate shape (a cycle below 3 nodes, an er
// graph with fewer than n-1 edges), or more nodes or edges than the 32-bit
// id spaces hold is an error, never a panic or an empty graph.
func FromSpec(spec string) (*Graph, error) {
	kind, args, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("graph: spec %q has no ':' (want e.g. grid3d:100x100x100)", spec)
	}
	switch kind {
	case "path", "cycle", "star", "tree", "complete":
		n, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("graph: spec %q: bad size %q", spec, args)
		}
		minN, edges := 1, int64(n)-1
		switch kind {
		case "cycle":
			minN, edges = 3, int64(n)
		case "complete":
			edges = int64(n) * (int64(n) - 1) / 2
		}
		if err := checkSize(spec, n, minN, edges); err != nil {
			return nil, err
		}
		switch kind {
		case "path":
			return Path(n), nil
		case "cycle":
			return Cycle(n), nil
		case "star":
			return Star(n), nil
		case "tree":
			return CompleteBinaryTree(n), nil
		default:
			return Complete(n), nil
		}
	case "grid":
		dims, err := specDims(spec, args, 2)
		if err != nil {
			return nil, err
		}
		r, c := dims[0], dims[1]
		if r > MaxNodes/c {
			return nil, fmt.Errorf("graph: spec %q exceeds MaxNodes (%d, the 32-bit NodeID space)", spec, MaxNodes)
		}
		if err := checkSize(spec, r*c, 1, int64(r)*int64(c-1)+int64(c)*int64(r-1)); err != nil {
			return nil, err
		}
		return Grid(r, c), nil
	case "grid3d":
		dims, err := specDims(spec, args, 3)
		if err != nil {
			return nil, err
		}
		return Grid3D(dims[0], dims[1], dims[2])
	case "er":
		kv, err := specKV(spec, args, "n", "m", "seed")
		if err != nil {
			return nil, err
		}
		n, m := kv["n"], kv["m"]
		if err := checkSize(spec, n, 1, int64(m)); err != nil {
			return nil, err
		}
		if m < n-1 {
			return nil, fmt.Errorf("graph: spec %q: a connected graph on n=%d nodes needs m >= %d edges", spec, n, n-1)
		}
		return RandomConnected(n, m, uint64(kv["seed"])), nil
	case "pa":
		kv, err := specKV(spec, args, "n", "m", "seed")
		if err != nil {
			return nil, err
		}
		return PowerLaw(kv["n"], kv["m"], uint64(kv["seed"]))
	case "ring":
		kv, err := specKV(spec, args, "k", "c")
		if err != nil {
			return nil, err
		}
		return RingOfCliques(kv["k"], kv["c"])
	default:
		return nil, fmt.Errorf("graph: unknown generator %q in spec %q (want path|cycle|grid|grid3d|star|tree|complete|er|pa|ring)", kind, spec)
	}
}

// checkSize rejects a node count below minN or beyond MaxNodes, and an
// edge count beyond MaxEdges.
func checkSize(spec string, n, minN int, edges int64) error {
	if n < minN {
		return fmt.Errorf("graph: spec %q: needs at least %d nodes, got %d", spec, minN, n)
	}
	if n > MaxNodes {
		return fmt.Errorf("graph: spec %q: %d nodes exceed MaxNodes (%d, the 32-bit NodeID space)", spec, n, MaxNodes)
	}
	if edges > MaxEdges {
		return fmt.Errorf("graph: spec %q: %d edges exceed MaxEdges (%d, the 32-bit LinkID space)", spec, edges, MaxEdges)
	}
	return nil
}

// specDims parses "AxBxC"-style dimension lists of exactly want entries,
// each at least 1.
func specDims(spec, args string, want int) ([]int, error) {
	parts := strings.Split(args, "x")
	if len(parts) != want {
		return nil, fmt.Errorf("graph: spec %q wants %d 'x'-separated dimensions, got %q", spec, want, args)
	}
	dims := make([]int, want)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("graph: spec %q: bad dimension %q", spec, p)
		}
		if v < 1 {
			return nil, fmt.Errorf("graph: spec %q: dimension %d must be at least 1", spec, v)
		}
		dims[i] = v
	}
	return dims, nil
}

// specKV parses "k=v,k=v" argument lists. Keys beyond the first two are
// optional and default to zero; unknown keys error.
func specKV(spec, args string, keys ...string) (map[string]int, error) {
	out := make(map[string]int, len(keys))
	known := make(map[string]bool, len(keys))
	for _, k := range keys {
		known[k] = true
		out[k] = 0
	}
	seen := make(map[string]bool)
	for _, part := range strings.Split(args, ",") {
		k, vs, ok := strings.Cut(part, "=")
		if !ok || !known[k] {
			return nil, fmt.Errorf("graph: spec %q: bad argument %q (want %s)", spec, part, strings.Join(keys, "=…,")+"=…")
		}
		if seen[k] {
			return nil, fmt.Errorf("graph: spec %q: duplicate argument %q", spec, k)
		}
		seen[k] = true
		v, err := strconv.Atoi(vs)
		if err != nil {
			return nil, fmt.Errorf("graph: spec %q: bad value %q for %s", spec, vs, k)
		}
		out[k] = v
	}
	for _, k := range keys[:2] {
		if !seen[k] {
			return nil, fmt.Errorf("graph: spec %q: missing required argument %s", spec, k)
		}
	}
	return out, nil
}
