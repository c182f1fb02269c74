package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"

	"fdx"
	"fdx/internal/core"
	"fdx/internal/metrics"
)

// outcome is what a discover produced, reduced to what the checks compare:
// a hash of the FD list, a hash of B's bits, the FD count, and the F1 of
// the FDs against the planted truth.
type outcome struct {
	FDs string  `json:"fds"`
	B   string  `json:"b"`
	N   int     `json:"n"`
	F1  float64 `json:"f1"`
}

// fingerprint reduces an FD list (as "A,B->C" lines) and the k×k matrix b
// to an outcome.
func fingerprint(fds []string, k int, b func(i, j int) float64) outcome {
	fh := sha256.Sum256([]byte(strings.Join(fds, "\n")))
	bh := fnv.New64a()
	var word [8]byte
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			bits := math.Float64bits(b(i, j))
			for w := range word {
				word[w] = byte(bits >> (8 * w))
			}
			bh.Write(word[:])
		}
	}
	return outcome{FDs: hex.EncodeToString(fh[:8]), B: fmt.Sprintf("%016x", bh.Sum64()), N: len(fds)}
}

// resultOutcome fingerprints a public discover result and scores it.
func resultOutcome(res *fdx.Result, truth []core.FD) outcome {
	lines := make([]string, len(res.FDs))
	for i, fd := range res.FDs {
		lines[i] = fd.String()
	}
	o := fingerprint(lines, len(res.B), func(i, j int) float64 { return res.B[i][j] })
	o.F1 = metrics.Evaluate(truth, indexed(res.Attributes, wireFDs(res.FDs), 0), false).F1
	return o
}

// modelOutcome fingerprints a core model (the traced path) and scores it.
func modelOutcome(m *core.Model, truth []core.FD) outcome {
	lines := make([]string, len(m.FDs))
	for i, fd := range m.FDs {
		lines[i] = fdString(m.AttrNames, fd)
	}
	o := fingerprint(lines, len(m.AttrNames), m.B.At)
	o.F1 = metrics.Evaluate(truth, m.FDs, false).F1
	return o
}

// fdString renders a core FD the way fdx.FD.String does.
func fdString(names []string, fd core.FD) string {
	lhs := make([]string, len(fd.LHS))
	for i, a := range fd.LHS {
		lhs[i] = names[a]
	}
	return strings.Join(lhs, ",") + " -> " + names[fd.RHS]
}

// namedFD is an FD over attribute names, as the API and the wire carry it.
type namedFD struct {
	lhs []string
	rhs string
}

func wireFDs(fds []fdx.FD) []namedFD {
	out := make([]namedFD, len(fds))
	for i, fd := range fds {
		out[i] = namedFD{fd.LHS, fd.RHS}
	}
	return out
}

// indexed maps named FDs to attribute indices, shifted by off.
func indexed(attrs []string, found []namedFD, off int) []core.FD {
	index := make(map[string]int, len(attrs))
	for i, a := range attrs {
		index[a] = i + off
	}
	fds := make([]core.FD, len(found))
	for i, fd := range found {
		fds[i].RHS = index[fd.rhs]
		for _, a := range fd.lhs {
			fds[i].LHS = append(fds[i].LHS, index[a])
		}
	}
	return fds
}

// reference holds, per batch workload, the outcome of every input variant
// as this benchmark's pinning commit computed it. Regenerate it with
// --pin only when a change means to alter FDs or B.
//
//go:embed reference.json
var referenceJSON []byte

func reference(workload string, seed int64) (outcome, error) {
	var ref map[string][]outcome
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return outcome{}, fmt.Errorf("reference.json: %w", err)
	}
	if len(ref[workload]) != variants {
		return outcome{}, fmt.Errorf("reference.json has %d %s variants, want %d", len(ref[workload]), workload, variants)
	}
	return ref[workload][variant(seed)], nil
}

// compare reports how got differs from want, or nil.
func compare(what string, got, want outcome) error {
	if got != want {
		return fmt.Errorf("%s: got %+v, reference %+v", what, got, want)
	}
	return nil
}

// writeReference runs every variant of the batch workloads once and writes
// their outcomes to path.
func writeReference(path string) error {
	ref := map[string][]outcome{}
	for _, w := range []string{"wide", "tall"} {
		for v := int64(0); v < variants; v++ {
			in, err := genBatch(w, v)
			if err != nil {
				return err
			}
			res, err := discoverCSV(in)
			if err != nil {
				return fmt.Errorf("%s variant %d: %w", w, v, err)
			}
			o := resultOutcome(res, in.truth)
			fmt.Fprintf(os.Stderr, "%s %2d: %d FDs, f1 %.4f\n", w, v, o.N, o.F1)
			ref[w] = append(ref[w], o)
		}
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
