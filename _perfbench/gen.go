package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"fdx/internal/bayesnet"
	"fdx/internal/core"
	"fdx/internal/dataset"
	"fdx/internal/synth"
)

// Workload shapes. See README.md for why each was chosen.
const (
	wideTuples, wideAttrs, wideDomain = 300, 384, 144
	tallRows                          = 50000
	noise                             = 0.01

	ingestAttrs, ingestDomain = 24, 144
	batchRows                 = 1024 // rows per POST /rows
	poolBatches               = 16   // distinct batches each ingest client cycles through
	discoverEvery             = 16   // a client POSTs /discover after every 16th batch
	ingestClients             = 2
)

// variants is how many distinct inputs the wide and tall workloads have:
// a seed selects variant seed mod variants, so every run's output can be
// checked against a reference pinned for that variant (reference.json).
const variants = 64

func variant(seed int64) int64 { return (seed%variants + variants) % variants }

// batchInput is a wide or tall workload: CSV bytes plus the planted truth.
type batchInput struct {
	csv   []byte
	rows  int
	attrs []string
	truth []core.FD
}

// genBatch generates the wide or tall input for seed.
func genBatch(workload string, seed int64) (*batchInput, error) {
	v := variant(seed)
	var (
		rel   *dataset.Relation
		truth []core.FD
	)
	switch workload {
	case "wide":
		inst := synthetic(wideTuples, wideAttrs, wideDomain, v)
		rel, truth = inst.Relation, inst.TrueFDs
	case "tall":
		net := bayesnet.Alarm()
		rel, truth = net.Sample(tallRows, noise, v), net.TrueFDs()
	default:
		return nil, fmt.Errorf("no batch workload %q", workload)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(rel, &buf); err != nil {
		return nil, err
	}
	return &batchInput{csv: buf.Bytes(), rows: rel.NumRows(), attrs: rel.AttrNames(), truth: truth}, nil
}

// synthetic is the paper's §5.1 generator (internal/synth) at 1% noise.
// synth.Generate flips its noise cells column by column in map order,
// which differs from one process to the next, so the generator runs
// noise-free here and the same noise model — each cell of an
// FD-participating attribute moved to a random other value of its domain
// with probability 1% — is applied in ascending column order.
func synthetic(tuples, attrs, domain int, seed int64) *synth.Instance {
	inst := synth.Generate(synth.Config{Tuples: tuples, Attributes: attrs, DomainCardinality: domain, Seed: seed})
	var cols []int
	for _, fd := range inst.TrueFDs {
		cols = append(cols, fd.RHS)
		cols = append(cols, fd.LHS...)
	}
	slices.Sort(cols)
	rng := rand.New(rand.NewSource(seed))
	for _, a := range slices.Compact(cols) {
		col := inst.Relation.Columns[a]
		card := col.Cardinality()
		if card < 2 {
			continue
		}
		for i := 0; i < col.Len(); i++ {
			if rng.Float64() < noise {
				next := int32(rng.Intn(card - 1))
				if next >= col.Code(i) {
					next++
				}
				col.SetCode(i, next)
			}
		}
	}
	return inst
}

// ingestInput is one ingest client's input: a pool of batches, each as
// rows and as the JSON array a /rows request carries, plus the planted
// truth. Each client streams its own synthetic instance, so f1 pools two
// instances' FDs.
type ingestInput struct {
	attrs   []string
	truth   []core.FD
	batches [][][]string
	bodies  [][]byte
}

// genIngest generates client c's input for seed.
func genIngest(seed int64, c int) (*ingestInput, error) {
	inst := synthetic(poolBatches*batchRows, ingestAttrs, ingestDomain, seed*ingestClients+int64(c))
	in := &ingestInput{attrs: inst.Relation.AttrNames(), truth: inst.TrueFDs}
	for b := 0; b < poolBatches; b++ {
		rows := make([][]string, batchRows)
		for i := range rows {
			rows[i] = inst.Relation.Row(b*batchRows + i)
		}
		body, err := json.Marshal(rows)
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, rows)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// rowsBody is the /rows request body for batch seq (1-based).
func (in *ingestInput) rowsBody(seq int) []byte {
	return fmt.Appendf(nil, `{"seq":%d,"rows":%s}`, seq, in.bodies[in.batchIndex(seq)])
}

// batchIndex is the pool batch a client sends as batch seq: the clients
// cycle through their pools.
func (in *ingestInput) batchIndex(seq int) int { return (seq - 1) % len(in.batches) }
