package core

import (
	"context"
	"strings"

	"fdx/internal/dataset"
	"fdx/internal/linalg"
)

// Test-only views of the pipeline: the float sample block, FD rendering for
// failure messages, and the string-level 3-gram similarity that the
// transform's per-code textGrams.jaccard must reproduce (TestJaccard3Gram).

// floatTransform is the pair transform's float sample block
// (TransformBitsContext under a context that never expires, unpacked):
// n·k rows, one stratum of n pairs per attribute, k 0/1 columns.
func floatTransform(rel *dataset.Relation, opts Options) *linalg.Dense {
	pb, err := TransformBitsContext(context.Background(), rel, opts)
	if err != nil {
		panic(err)
	}
	return pb.Dense()
}

// formatFDs renders the model's FDs one per line using attribute names.
func formatFDs(m *Model) string {
	var b strings.Builder
	for _, fd := range m.FDs {
		b.WriteString(fd.Format(m.AttrNames))
		b.WriteByte('\n')
	}
	return b.String()
}

// jaccard3gram returns the Jaccard similarity of the 3-gram sets of two
// strings (case-folded). Short strings fall back to exact comparison.
func jaccard3gram(a, b string) float64 {
	a, b = strings.ToLower(a), strings.ToLower(b)
	if len(a) < 3 || len(b) < 3 {
		if a == b {
			return 1
		}
		return 0
	}
	ga := gramSet(a)
	gb := gramSet(b)
	inter := 0
	for g := range ga {
		if gb[g] {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
