// Package ordering provides the fill-reducing column orderings FDX applies
// before the UDUᵀ factorization of the estimated precision matrix
// (paper §5.6.2, Table 9). Orderings operate on the sparsity graph of Θ
// (nodes = attributes, edges = non-zero off-diagonal entries).
//
// The paper uses CHOLMOD's heuristics; here each is implemented from
// scratch: exact minimum degree ("heuristic", the paper's default), an
// approximate minimum degree variant ("amd"), a column-count flavored
// variant ("colamd"), and two nested-dissection variants standing in for
// METIS ("metis") and CHOLMOD's nesdis ("nesdis"). "natural", "reverse"
// and "random" complete the set.
package ordering

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
	"fdx/internal/obs"
)

// Method names accepted by ByName.
const (
	Natural   = "natural"
	Heuristic = "heuristic" // exact minimum degree (paper default)
	AMD       = "amd"
	COLAMD    = "colamd"
	METIS     = "metis"
	NESDIS    = "nesdis"
	Reverse   = "reverse"
	Random    = "random"
)

// Methods lists all ordering method names (the Table 9 sweep).
var Methods = []string{Heuristic, Natural, AMD, COLAMD, METIS, NESDIS}

// Graph is an undirected graph stored as one adjacency bitset per node:
// row v is words consecutive uint64s of bits, bit u set iff u ~ v. The
// elimination graph of the minimum-degree and fill computations lives in
// the same form, so eliminating a node is a word-wise OR per neighbor.
type Graph struct {
	n, words int
	bits     []uint64
}

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph {
	words := (n + 63) / 64
	return &Graph{n: n, words: words, bits: make([]uint64, n*words)}
}

// row returns node v's adjacency bitset.
func (g *Graph) row(v int) []uint64 { return g.bits[v*g.words : (v+1)*g.words] }

// has reports whether the edge (a, b) is present.
func (g *Graph) has(a, b int) bool { return g.bits[a*g.words+b>>6]&(1<<(b&63)) != 0 }

// AddEdge inserts the undirected edge (a, b); self-loops are ignored.
func (g *Graph) AddEdge(a, b int) {
	if a == b {
		return
	}
	g.row(a)[b>>6] |= 1 << (b & 63)
	g.row(b)[a>>6] |= 1 << (a & 63)
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// Edges returns the undirected edge count.
func (g *Graph) Edges() int { return onesCount(g.bits) / 2 }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return onesCount(g.row(v)) }

// Neighbors returns the sorted neighbor list of node v.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, 0, g.Degree(v))
	for w, word := range g.row(v) {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6|bits.TrailingZeros64(word))
		}
	}
	return out
}

// clone returns a deep copy of g.
func (g *Graph) clone() *Graph {
	return &Graph{n: g.n, words: g.words, bits: append([]uint64(nil), g.bits...)}
}

// degrees returns every node's degree.
func (g *Graph) degrees() []int {
	deg := make([]int, g.n)
	for v := range deg {
		deg[v] = g.Degree(v)
	}
	return deg
}

// onesCount is the population count of a bitset.
func onesCount(set []uint64) int {
	c := 0
	for _, w := range set {
		c += bits.OnesCount64(w)
	}
	return c
}

// FromPrecision builds the sparsity graph of a symmetric matrix: an edge
// for every off-diagonal entry with |θ_ij| > tol.
func FromPrecision(theta *linalg.Dense, tol float64) *Graph {
	n, _ := theta.Dims()
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(theta.At(i, j)) > tol {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// Order computes the permutation for the named method. The seed is used
// only by "random". The returned permutation lists original indices in
// elimination order: perm[position] = original column. Unknown method names
// return an ErrBadInput-wrapped error; there is deliberately no panicking
// variant — an ordering typo must surface as a matchable error from
// Discover, not kill the process.
func Order(method string, g *Graph, seed int64) (linalg.Permutation, error) {
	return OrderObs(method, g, seed, obs.Hooks{})
}

// OrderObs is Order with telemetry: the computation runs inside an
// "ordering" stage span annotated with the method and graph size.
func OrderObs(method string, g *Graph, seed int64, h obs.Hooks) (linalg.Permutation, error) {
	sp := h.StartStage("ordering")
	defer sp.End()
	sp.Attr("method", method)
	sp.Attr("nodes", g.N())
	sp.Attr("edges", g.Edges())
	return order(method, g, seed)
}

// order dispatches to the method implementations.
func order(method string, g *Graph, seed int64) (linalg.Permutation, error) {
	switch method {
	case Natural:
		return linalg.IdentityPerm(g.n), nil
	case Reverse:
		p := make(linalg.Permutation, g.n)
		for i := range p {
			p[i] = g.n - 1 - i
		}
		return p, nil
	case Random:
		p := linalg.IdentityPerm(g.n)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(g.n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p, nil
	case Heuristic:
		return minDegree(g, exactDegree), nil
	case AMD:
		return minDegree(g, approximateDegree), nil
	case COLAMD:
		return minDegree(g, staticDegree), nil
	case METIS:
		return nestedDissection(g, true), nil
	case NESDIS:
		return nestedDissection(g, false), nil
	default:
		return nil, fmt.Errorf("ordering: unknown method %q: %w", method, fdxerr.ErrBadInput)
	}
}

// Fill returns the number of fill-in edges created when eliminating the
// graph's nodes in the given order: eliminating a node connects all its
// not-yet-eliminated neighbors into a clique, and every edge added that
// way is fill. Fill is what the fill-reducing orderings minimize — for the
// UDUᵀ factorization, fill edges are structurally non-zero entries of U
// that a better order would have kept zero.
func Fill(g0 *Graph, perm linalg.Permutation) int {
	g := g0.clone()
	deg := g.degrees()
	fill := 0
	for _, v := range perm {
		fill += g.eliminate(v, deg)
	}
	return fill
}

// eliminate removes v from the elimination graph: each neighbor u takes
// row(u) |= row(v) with bits u and v cleared, which joins v's neighbors
// into a clique, and deg[u] follows. It returns the clique edges that were
// missing, counted by and-not popcounts before the OR — the fill this
// elimination creates. Each neighbor costs O(n/64) word operations.
//
// fdx:zero-alloc
func (g *Graph) eliminate(v int, deg []int) (fill int) {
	rv := g.row(v)
	for w, word := range rv {
		for ; word != 0; word &= word - 1 {
			u := w<<6 | bits.TrailingZeros64(word)
			ru := g.row(u)
			missing := -1 // u itself is in N(v) but not in N(u)
			for k, x := range rv {
				missing += bits.OnesCount64(x &^ ru[k])
				ru[k] |= x
			}
			ru[u>>6] &^= 1 << (u & 63)
			ru[v>>6] &^= 1 << (v & 63)
			deg[u] += missing - 1 // gains the missing edges, loses v
			fill += missing
		}
	}
	clear(rv)
	deg[v] = 0
	return fill / 2 // each missing edge was counted from both ends
}

// scoreKind selects the minimum-degree elimination score; lower is
// eliminated earlier.
type scoreKind int

const (
	// exactDegree is the true degree in the elimination graph.
	exactDegree scoreKind = iota
	// approximateDegree upper-bounds the post-elimination degree by the
	// sum of neighbor degrees (Amestoy-style, no quotient graph).
	approximateDegree
	// staticDegree ignores fill and uses the original column counts (a
	// colamd-flavored heuristic: cheap, column-driven).
	staticDegree
)

// pickMin returns the live node with the lowest score, ties broken on the
// lower index. deg holds the degrees the score reads: the elimination
// graph's, or the original graph's for staticDegree.
//
// fdx:zero-alloc
func (g *Graph) pickMin(score scoreKind, deg []int, eliminated []bool) int {
	best, bestScore := -1, math.MaxInt
	for v, done := range eliminated {
		if done {
			continue
		}
		s := deg[v]
		if score == approximateDegree {
			s = 0
			for w, word := range g.row(v) {
				for ; word != 0; word &= word - 1 {
					s += deg[w<<6|bits.TrailingZeros64(word)]
				}
			}
		}
		if s < bestScore {
			best, bestScore = v, s
		}
	}
	return best
}

// minDegree runs the elimination-graph minimum degree algorithm with the
// given score. Ties break on the lower original index, making the ordering
// deterministic.
func minDegree(g0 *Graph, score scoreKind) linalg.Permutation {
	g := g0.clone()
	deg := g.degrees()
	scored := deg
	if score == staticDegree {
		scored = g0.degrees()
	}
	eliminated := make([]bool, g.n)
	perm := make(linalg.Permutation, 0, g.n)
	for len(perm) < g.n {
		v := g.pickMin(score, scored, eliminated)
		g.eliminate(v, deg)
		eliminated[v] = true
		perm = append(perm, v)
	}
	return perm
}

// nestedDissection recursively splits the graph with a BFS level-set
// separator; parts are ordered first, the separator last (so separator
// columns are eliminated late, confining fill). When refine is true a
// greedy boundary-shrinking pass imitates METIS-style refinement.
func nestedDissection(g *Graph, refine bool) linalg.Permutation {
	var out linalg.Permutation
	var recurse func(sub []int)
	recurse = func(sub []int) {
		sg := inducedSubgraph(g, sub)
		var left, right, sep []int
		if len(sub) > 3 {
			left, right, sep = bisect(sg, refine)
		}
		// Small fragments, and splits that make no progress (one side
		// swallowing the whole fragment), are ordered by minimum degree.
		if len(sub) <= 3 || len(left) == len(sub) || len(right) == len(sub) {
			for _, v := range minDegree(sg, exactDegree) {
				out = append(out, sub[v])
			}
			return
		}
		mapBack := func(vs []int) []int {
			o := make([]int, len(vs))
			for i, v := range vs {
				o[i] = sub[v]
			}
			return o
		}
		recurse(mapBack(left))
		recurse(mapBack(right))
		out = append(out, mapBack(sep)...)
	}
	recurse(linalg.IdentityPerm(g.n))
	return out
}

// inducedSubgraph returns the subgraph on the given original nodes; local
// node i is nodes[i].
func inducedSubgraph(g *Graph, nodes []int) *Graph {
	sg := NewGraph(len(nodes))
	for i, v := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if g.has(v, nodes[j]) {
				sg.AddEdge(i, j)
			}
		}
	}
	return sg
}

// bisect splits g into (left, right, separator) via a BFS level structure
// from a pseudo-peripheral vertex. Disconnected remainders go to the
// smaller side. With refine, separator nodes that touch only one side are
// greedily pushed into that side. Each part lists its nodes ascending.
func bisect(g *Graph, refine bool) (left, right, sep []int) {
	n := g.n
	level := bfsLevels(g, pseudoPeripheral(g))
	// Unreached nodes (other components) get the max level + 1.
	maxLevel := 0
	for _, l := range level {
		maxLevel = max(maxLevel, l)
	}
	counts := make([]int, maxLevel+2)
	for v, l := range level {
		if l < 0 {
			level[v] = maxLevel + 1
		}
		counts[level[v]]++
	}
	// Pick the cut level so roughly half the nodes fall below it.
	cut, acc := 0, 0
	for l, c := range counts {
		acc += c
		cut = l
		if acc >= n/2 {
			break
		}
	}
	side := make([]int8, n) // 0 left, 1 right, 2 separator
	for v, l := range level {
		switch {
		case l == cut:
			side[v] = 2
		case l > cut:
			side[v] = 1
		}
	}
	switch {
	case counts[cut] == n:
		// Degenerate split, everything on the cut level: fall back to an
		// even index split.
		clear(side)
		for v := n / 2; v < n; v++ {
			side[v] = 1
		}
	case refine:
		shrinkSeparator(g, side)
	}
	for v, sd := range side {
		switch sd {
		case 0:
			left = append(left, v)
		case 1:
			right = append(right, v)
		default:
			sep = append(sep, v)
		}
	}
	return left, right, sep
}

// shrinkSeparator moves separator nodes adjacent to only one side into that
// side, shrinking the separator (a light imitation of KL/FM refinement).
// side holds each node's part as bisect encodes it; separator nodes are
// visited in ascending order, each seeing the moves made before it.
func shrinkSeparator(g *Graph, side []int8) {
	for v, sd := range side {
		if sd != 2 {
			continue
		}
		touchLeft, touchRight := false, false
		for _, u := range g.Neighbors(v) {
			switch side[u] {
			case 0:
				touchLeft = true
			case 1:
				touchRight = true
			}
		}
		switch {
		case touchLeft && !touchRight:
			side[v] = 0
		case touchRight && !touchLeft:
			side[v] = 1
		}
	}
}

// pseudoPeripheral finds an approximate graph-diameter endpoint by repeated
// BFS (the standard Gibbs-Poole-Stockmeyer style sweep).
func pseudoPeripheral(g *Graph) int {
	v := 0
	for iter := 0; iter < 4; iter++ {
		level := bfsLevels(g, v)
		far, farLevel := v, -1
		for u, l := range level {
			if l > farLevel {
				far, farLevel = u, l
			}
		}
		if far == v {
			break
		}
		v = far
	}
	return v
}

// bfsLevels returns per-node BFS depth from start (−1 for unreachable).
func bfsLevels(g *Graph, start int) []int {
	level := make([]int, g.n)
	for i := range level {
		level[i] = -1
	}
	if g.n == 0 {
		return level
	}
	level[start] = 0
	queue := []int{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if level[u] < 0 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level
}
