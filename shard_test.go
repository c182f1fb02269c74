package fdx_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"fdx"
)

// batchedBaseline absorbs the relation sequentially in fixed-size batches
// and discovers — the single-shard reference every sharded run must match
// bit-for-bit.
func batchedBaseline(t *testing.T, rel *fdx.Relation, opts fdx.Options, batchRows int) *fdx.Result {
	t.Helper()
	acc := fdx.NewAccumulator(rel.AttrNames(), opts)
	for lo := 0; lo < rel.NumRows(); lo += batchRows {
		hi := lo + batchRows
		if hi > rel.NumRows() {
			hi = rel.NumRows()
		}
		if err := acc.Add(rel.Slice(lo, hi)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := acc.Discover()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedDiscoverDeterministicSweep is the library-level crash-free
// equivalence sweep: splitting the batch grid across shards ∈ {1,2,4,7}
// and transform workers ∈ {1,4}, building each shard with AddAt on its
// span of global batch indices, and tree-merging with MergeShards must
// reproduce the sequential result exactly — same FD list element-wise and
// bit-identical B. The per-batch transform seed depends only on the global
// batch index, so shard boundaries cannot leak into the statistics.
func TestShardedDiscoverDeterministicSweep(t *testing.T) {
	rel := noisyAddressRelation(rand.New(rand.NewSource(11)), 400, 0.03)
	const batchRows = 50
	totalBatches := (rel.NumRows() + batchRows - 1) / batchRows

	for _, workers := range []int{1, 4} {
		opts := fdx.Options{Seed: 7, Workers: workers}
		want := batchedBaseline(t, rel, opts, batchRows)
		for _, shards := range []int{1, 2, 4, 7} {
			accs := make([]*fdx.Accumulator, 0, shards)
			for _, span := range fdx.ShardSpans(totalBatches, shards) {
				acc := fdx.NewAccumulator(rel.AttrNames(), opts)
				for g := span.Lo; g < span.Hi; g++ {
					lo, hi := g*batchRows, (g+1)*batchRows
					if hi > rel.NumRows() {
						hi = rel.NumRows()
					}
					if err := acc.AddAt(rel.Slice(lo, hi), g); err != nil {
						t.Fatal(err)
					}
				}
				accs = append(accs, acc)
			}
			merged, err := fdx.MergeShards(accs, workers)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: MergeShards: %v", shards, workers, err)
			}
			got, err := merged.Discover()
			if err != nil {
				t.Fatalf("shards=%d workers=%d: Discover: %v", shards, workers, err)
			}
			assertIdentical(t, want, got)
		}
	}
}

// fuzzRecipient builds the live accumulator FuzzMergeSnapshot merges into:
// one absorbed batch, so compatibility checks have real state to defend.
func fuzzRecipient() (*fdx.Accumulator, *fdx.Relation) {
	rel := noisyAddressRelation(rand.New(rand.NewSource(3)), 120, 0.05)
	acc := fdx.NewAccumulator(rel.AttrNames(), fdx.Options{})
	if err := acc.AddAt(rel.Slice(0, 40), 0); err != nil {
		panic(err)
	}
	return acc, rel
}

// TestMergeV1ShardSnapshot merges a shard snapshot a version-1 build
// wrote (global batch 1 of fuzzRecipient's relation) and requires the
// state this build reaches by merging the same shard absorbed here.
func TestMergeV1ShardSnapshot(t *testing.T) {
	want, rel := fuzzRecipient()
	shard := fdx.NewAccumulator(rel.AttrNames(), fdx.Options{})
	if err := shard.AddAt(rel.Slice(40, 80), 1); err != nil {
		t.Fatal(err)
	}
	if applied, err := want.Merge(shard); err != nil || !applied {
		t.Fatalf("merge: applied %v, err %v", applied, err)
	}
	got, _ := fuzzRecipient()
	if applied, err := got.MergeSnapshot(bytes.NewReader(readV1Golden(t, "shard.fdx"))); err != nil || !applied {
		t.Fatalf("merge version-1 snapshot: applied %v, err %v", applied, err)
	}
	var a, b bytes.Buffer
	if err := got.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("merging the version-1 shard snapshot gives a different state")
	}
}

// FuzzMergeSnapshot feeds arbitrary bytes to Accumulator.MergeSnapshot.
// The contract under test: the call never panics; it either applies a
// valid compatible snapshot or returns an error from the checkpoint/shard
// taxonomy; and a rejected (or duplicate) snapshot leaves the recipient
// bit-identical — corrupt shards must never poison merged state. Run
// longer campaigns with:
//
//	go test -fuzz FuzzMergeSnapshot -fuzztime 30s .
func FuzzMergeSnapshot(f *testing.F) {
	// Corpus: a valid disjoint shard snapshot plus structured corruptions
	// of it, so the campaign starts at the format's cliff edges.
	donorRel := noisyAddressRelation(rand.New(rand.NewSource(3)), 120, 0.05)
	shard := fdx.NewAccumulator(donorRel.AttrNames(), fdx.Options{})
	if err := shard.AddAt(donorRel.Slice(40, 80), 1); err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := shard.Snapshot(&valid); err != nil {
		f.Fatal(err)
	}
	seed := valid.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // torn write
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x40 // bit rot
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("not a snapshot at all"))
	f.Add(seed[:8]) // header only
	// The same shard as written by a version-1 build, with its coverage
	// section; the merge converts it.
	f.Add(readV1Golden(f, "shard.fdx"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		acc, rel := fuzzRecipient()
		var before bytes.Buffer
		if err := acc.Snapshot(&before); err != nil {
			t.Fatal(err)
		}
		applied, err := acc.MergeSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, fdx.ErrCorruptCheckpoint) &&
				!errors.Is(err, fdx.ErrCheckpointVersion) &&
				!errors.Is(err, fdx.ErrShardMismatch) &&
				!errors.Is(err, fdx.ErrBadInput) {
				t.Fatalf("error outside the taxonomy: %v", err)
			}
		}
		if err != nil || !applied {
			var after bytes.Buffer
			if serr := acc.Snapshot(&after); serr != nil {
				t.Fatalf("snapshot after rejected merge: %v", serr)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatal("rejected merge mutated the recipient")
			}
		}
		// The recipient stays usable either way: the next global batch
		// still absorbs.
		if aerr := acc.AddAt(rel.Slice(80, 120), acc.NextGlobal()); aerr != nil {
			t.Fatalf("recipient unusable after merge attempt: %v", aerr)
		}
	})
}
