package stats

import (
	"math"
	"sort"
)

// Entropy returns the Shannon entropy (in nats) of the empirical
// distribution given by counts. Zero counts contribute nothing.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	n := float64(total)
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / n
			h -= p * math.Log(p)
		}
	}
	return h
}

// sortedCounts extracts a map's count values in sorted order so that the
// float summations downstream are bit-for-bit reproducible: float addition
// is not associative, and Go randomizes map iteration order per run.
func sortedCounts(counts map[int]int) []int {
	cs := make([]int, 0, len(counts))
	for _, c := range counts {
		cs = append(cs, c)
	}
	sort.Ints(cs)
	return cs
}

// sortedKeys returns a count map's keys ascending, for deterministic
// iteration wherever the visit order reaches a float accumulation.
func sortedKeys(counts map[int]int) []int {
	ks := make([]int, 0, len(counts))
	for k := range counts {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// Contingency is a sparse joint count table over two discrete variables.
type Contingency struct {
	N      int // total observations
	Joint  map[[2]int]int
	RowSum map[int]int // marginal counts of X
	ColSum map[int]int // marginal counts of Y
}

// NewContingency tabulates paired label sequences x and y.
// Panics if the sequences have different lengths.
func NewContingency(x, y []int) *Contingency {
	if len(x) != len(y) {
		panic("stats: NewContingency label sequences have different lengths")
	}
	c := &Contingency{
		Joint:  map[[2]int]int{},
		RowSum: map[int]int{},
		ColSum: map[int]int{},
	}
	for i := range x {
		c.Joint[[2]int{x[i], y[i]}]++
		c.RowSum[x[i]]++
		c.ColSum[y[i]]++
		c.N++
	}
	return c
}

// EntropyX returns H(X).
func (c *Contingency) EntropyX() float64 { return entropyOfMap(c.RowSum) }

// EntropyY returns H(Y).
func (c *Contingency) EntropyY() float64 { return entropyOfMap(c.ColSum) }

// JointEntropy returns H(X, Y).
func (c *Contingency) JointEntropy() float64 {
	if c.N == 0 {
		return 0
	}
	cs := make([]int, 0, len(c.Joint))
	for _, cnt := range c.Joint {
		cs = append(cs, cnt)
	}
	sort.Ints(cs)
	h := 0.0
	n := float64(c.N)
	for _, cnt := range cs {
		p := float64(cnt) / n
		h -= p * math.Log(p)
	}
	return h
}

// MutualInformation returns I(X;Y) = H(X) + H(Y) − H(X,Y), clamped at 0.
func (c *Contingency) MutualInformation() float64 {
	mi := c.EntropyX() + c.EntropyY() - c.JointEntropy()
	if mi < 0 {
		return 0
	}
	return mi
}

func entropyOfMap(counts map[int]int) float64 {
	return Entropy(sortedCounts(counts))
}

// JointLabels composes multiple label sequences into a single label
// sequence over the product domain (labels are interned per distinct
// combination).
func JointLabels(seqs ...[]int) []int {
	if len(seqs) == 0 {
		return nil
	}
	n := len(seqs[0])
	out := make([]int, n)
	type key = string
	intern := map[key]int{}
	buf := make([]byte, 0, 8*len(seqs))
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for _, s := range seqs {
			v := s[i]
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), '|')
		}
		k := string(buf)
		id, ok := intern[k]
		if !ok {
			id = len(intern)
			intern[k] = id
		}
		out[i] = id
	}
	return out
}
