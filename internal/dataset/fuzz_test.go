package dataset

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzReadCSV checks ReadCSV against its encoding/csv oracle (the same
// accepts, errors and relations), and that everything it accepts
// round-trips structurally.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n3,\n")
	f.Add("x\n\"quoted, cell\"\n")
	f.Add("h1,h2,h3\n,,\n")
	f.Add("")
	for _, c := range csvCases {
		if len(c.data) < 256 {
			f.Add(c.data)
		}
	}
	f.Fuzz(func(t *testing.T, data string) {
		rel := checkCSVParity(t, "input", func() io.Reader { return strings.NewReader(data) })
		if rel == nil {
			return
		}
		if err := rel.Validate(); err != nil {
			t.Fatalf("accepted relation fails validation: %v", err)
		}
		// encoding/csv writes a record whose only field is empty as an
		// empty line, which readers skip: single-column relations with
		// empty names or NULL cells cannot round-trip through CSV.
		if rel.NumCols() <= 1 {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(rel, &buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadCSV("fuzz2", &buf)
		if err != nil {
			if rel.NumCols() == 0 {
				return
			}
			t.Fatalf("round trip unparsable: %v", err)
		}
		if back.NumRows() != rel.NumRows() || back.NumCols() != rel.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d vs %dx%d",
				back.NumRows(), back.NumCols(), rel.NumRows(), rel.NumCols())
		}
	})
}

// FuzzReadJSONL checks the JSONL parser never panics and validates its
// output.
func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"a":1,"b":"x"}`)
	f.Add("{\"a\":null}\n{\"b\":true}")
	f.Add("")
	f.Add(`{"n":1e308}`)
	f.Fuzz(func(t *testing.T, data string) {
		rel, err := ReadJSONL("fuzz", strings.NewReader(data))
		if err != nil {
			return
		}
		if err := rel.Validate(); err != nil {
			t.Fatalf("accepted relation fails validation: %v", err)
		}
	})
}
