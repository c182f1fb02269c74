package ordering

// The frozen oracle for the bitset Graph: the adjacency-set (map) graph,
// minimum degree and nested dissection exactly as they were before the
// bitset port. The differential tests in ordering_test.go require every
// method to produce the same permutation and Fill on both representations.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
)

// mapGraph is an undirected graph in adjacency-set form.
type mapGraph struct {
	n   int
	adj []map[int]bool
}

// newMapGraph returns an empty graph on n nodes.
func newMapGraph(n int) *mapGraph {
	g := &mapGraph{n: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// AddEdge inserts the undirected edge (a, b); self-loops are ignored.
func (g *mapGraph) AddEdge(a, b int) {
	if a == b {
		return
	}
	g.adj[a][b] = true
	g.adj[b][a] = true
}

// N returns the node count.
func (g *mapGraph) N() int { return g.n }

// Edges returns the undirected edge count.
func (g *mapGraph) Edges() int {
	half := 0
	for _, nb := range g.adj {
		half += len(nb)
	}
	return half / 2
}

// Degree returns the degree of node v.
func (g *mapGraph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted neighbor list of node v.
func (g *mapGraph) Neighbors(v int) []int {
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// clone returns a deep copy of g.
func (g *mapGraph) clone() *mapGraph {
	c := newMapGraph(g.n)
	for v, nb := range g.adj {
		for u := range nb {
			c.adj[v][u] = true
		}
	}
	return c
}

// order dispatches to the method implementations.
func oracleOrder(method string, g *mapGraph, seed int64) (linalg.Permutation, error) {
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
		return oracleMinDegree(g, oracleExactDegree), nil
	case AMD:
		return oracleMinDegree(g, oracleApproximateDegree), nil
	case COLAMD:
		return oracleMinDegree(g, oracleStaticDegree), nil
	case METIS:
		return oracleNestedDissection(g, true), nil
	case NESDIS:
		return oracleNestedDissection(g, false), nil
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
func oracleFill(g0 *mapGraph, perm linalg.Permutation) int {
	g := g0.clone()
	fill := 0
	for _, v := range perm {
		nbs := g.Neighbors(v)
		for i := 0; i < len(nbs); i++ {
			for j := i + 1; j < len(nbs); j++ {
				if !g.adj[nbs[i]][nbs[j]] {
					fill++
					g.AddEdge(nbs[i], nbs[j])
				}
			}
		}
		for _, u := range nbs {
			delete(g.adj[u], v)
		}
		g.adj[v] = map[int]bool{}
	}
	return fill
}

// oracleDegreeFn scores a candidate node in the current elimination graph; lower
// is eliminated earlier.
type oracleDegreeFn func(g *mapGraph, original *mapGraph, v int) int

// oracleExactDegree is the true degree in the elimination graph.
func oracleExactDegree(g *mapGraph, _ *mapGraph, v int) int { return len(g.adj[v]) }

// oracleApproximateDegree upper-bounds the post-elimination degree by the sum of
// neighbor degrees (Amestoy-style bound, without quotient-graph bookkeeping).
func oracleApproximateDegree(g *mapGraph, _ *mapGraph, v int) int {
	d := 0
	for u := range g.adj[v] {
		d += len(g.adj[u])
	}
	return d
}

// oracleStaticDegree ignores fill and uses the original column counts (a
// colamd-flavored heuristic: cheap, column-driven).
func oracleStaticDegree(_ *mapGraph, original *mapGraph, v int) int { return len(original.adj[v]) }

// oracleMinDegree runs the elimination-graph minimum degree algorithm with the
// supplied scoring function. Ties break on the lower original index, making
// the ordering deterministic.
func oracleMinDegree(g0 *mapGraph, score oracleDegreeFn) linalg.Permutation {
	g := g0.clone()
	n := g.n
	eliminated := make([]bool, n)
	perm := make(linalg.Permutation, 0, n)
	for len(perm) < n {
		best, bestScore := -1, math.MaxInt
		for v := 0; v < n; v++ {
			if eliminated[v] {
				continue
			}
			s := score(g, g0, v)
			if s < bestScore {
				best, bestScore = v, s
			}
		}
		// Eliminate: connect neighbors into a clique, then remove the node.
		nbs := g.Neighbors(best)
		for i := 0; i < len(nbs); i++ {
			for j := i + 1; j < len(nbs); j++ {
				g.AddEdge(nbs[i], nbs[j])
			}
		}
		for _, u := range nbs {
			delete(g.adj[u], best)
		}
		g.adj[best] = map[int]bool{}
		eliminated[best] = true
		perm = append(perm, best)
	}
	return perm
}

// oracleNestedDissection recursively splits the graph with a BFS level-set
// separator; parts are ordered first, the separator last (so separator
// columns are eliminated late, confining fill). When refine is true a
// greedy boundary-shrinking pass imitates METIS-style refinement.
func oracleNestedDissection(g *mapGraph, refine bool) linalg.Permutation {
	nodes := make([]int, g.n)
	for i := range nodes {
		nodes[i] = i
	}
	var out linalg.Permutation
	var recurse func(sub []int)
	recurse = func(sub []int) {
		if len(sub) <= 3 {
			// Base case: order the fragment by minimum degree.
			sg, back := oracleInducedSubgraph(g, sub)
			p := oracleMinDegree(sg, oracleExactDegree)
			for _, v := range p {
				out = append(out, back[v])
			}
			return
		}
		sg, back := oracleInducedSubgraph(g, sub)
		left, right, sep := oracleBisect(sg, refine)
		// Guard against non-progressing splits (one side swallowing the
		// whole fragment): fall back to minimum degree for the fragment.
		if len(left) == len(sub) || len(right) == len(sub) {
			p := oracleMinDegree(sg, oracleExactDegree)
			for _, v := range p {
				out = append(out, back[v])
			}
			return
		}
		mapBack := func(vs []int) []int {
			o := make([]int, len(vs))
			for i, v := range vs {
				o[i] = back[v]
			}
			return o
		}
		recurse(mapBack(left))
		recurse(mapBack(right))
		for _, v := range mapBack(sep) {
			out = append(out, v)
		}
	}
	recurse(nodes)
	return out
}

// oracleInducedSubgraph returns the subgraph on the given original nodes plus the
// local→original index map.
func oracleInducedSubgraph(g *mapGraph, nodes []int) (*mapGraph, []int) {
	local := make(map[int]int, len(nodes))
	for i, v := range nodes {
		local[v] = i
	}
	sg := newMapGraph(len(nodes))
	for i, v := range nodes {
		for u := range g.adj[v] {
			if j, ok := local[u]; ok {
				sg.AddEdge(i, j)
			}
		}
	}
	back := append([]int(nil), nodes...)
	return sg, back
}

// oracleBisect splits g into (left, right, separator) via a BFS level structure
// from a pseudo-peripheral vertex. Disconnected remainders go to the
// smaller side. With refine, separator nodes that touch only one side are
// greedily pushed into that side.
func oracleBisect(g *mapGraph, refine bool) (left, right, sep []int) {
	n := g.n
	start := oraclePseudoPeripheral(g)
	level := oracleBFSLevels(g, start)
	// Unreached nodes (other components) get the max level + 1.
	maxLevel := 0
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	for v := range level {
		if level[v] < 0 {
			level[v] = maxLevel + 1
		}
	}
	// Pick the cut level so roughly half the nodes fall below it.
	counts := make([]int, maxLevel+2)
	for _, l := range level {
		counts[l]++
	}
	cut, acc := 0, 0
	for l, c := range counts {
		acc += c
		cut = l
		if acc >= n/2 {
			break
		}
	}
	for v := 0; v < n; v++ {
		switch {
		case level[v] < cut:
			left = append(left, v)
		case level[v] == cut:
			sep = append(sep, v)
		default:
			right = append(right, v)
		}
	}
	// Degenerate splits: fall back to an even index split.
	if len(left) == 0 && len(right) == 0 {
		mid := n / 2
		for v := 0; v < n; v++ {
			if v < mid {
				left = append(left, v)
			} else {
				right = append(right, v)
			}
		}
		return left, right, nil
	}
	if refine {
		left, right, sep = oracleShrinkSeparator(g, left, right, sep)
	}
	return left, right, sep
}

// oracleShrinkSeparator moves separator nodes adjacent to only one side into that
// side, shrinking the separator (a light imitation of KL/FM refinement).
func oracleShrinkSeparator(g *mapGraph, left, right, sep []int) (l, r, s []int) {
	side := make(map[int]int) // 0 left, 1 right, 2 sep
	for _, v := range left {
		side[v] = 0
	}
	for _, v := range right {
		side[v] = 1
	}
	for _, v := range sep {
		side[v] = 2
	}
	for _, v := range sep {
		touchLeft, touchRight := false, false
		for u := range g.adj[v] {
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
	for v, sd := range side {
		switch sd {
		case 0:
			l = append(l, v)
		case 1:
			r = append(r, v)
		default:
			s = append(s, v)
		}
	}
	sort.Ints(l)
	sort.Ints(r)
	sort.Ints(s)
	return l, r, s
}

// oraclePseudoPeripheral finds an approximate graph-diameter endpoint by repeated
// BFS (the standard Gibbs-Poole-Stockmeyer style sweep).
func oraclePseudoPeripheral(g *mapGraph) int {
	if g.n == 0 {
		return 0
	}
	v := 0
	for iter := 0; iter < 4; iter++ {
		level := oracleBFSLevels(g, v)
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

// oracleBFSLevels returns per-node BFS depth from start (−1 for unreachable).
func oracleBFSLevels(g *mapGraph, start int) []int {
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
