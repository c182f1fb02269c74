package dataset

import (
	"strings"
	"testing"
)

func TestReadJSONLBasic(t *testing.T) {
	in := `{"a":"x","b":1}
{"a":"y","b":2.5}
{"a":null,"c":true}
`
	rel, err := ReadJSONL("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 3 || rel.NumCols() != 3 {
		t.Fatalf("dims %dx%d", rel.NumRows(), rel.NumCols())
	}
	if rel.ColumnIndex("a") < 0 || rel.ColumnIndex("b") < 0 || rel.ColumnIndex("c") < 0 {
		t.Fatal("columns missing")
	}
	b := rel.Columns[rel.ColumnIndex("b")]
	if b.Type != Numeric {
		t.Errorf("b type = %v, want numeric", b.Type)
	}
	if v, _ := b.Value(1); v != "2.5" {
		t.Errorf("b[1] = %q", v)
	}
	if v, _ := b.Value(0); v != "1" {
		t.Errorf("b[0] = %q (integral floats should not carry .0)", v)
	}
	a := rel.Columns[rel.ColumnIndex("a")]
	if !a.IsMissing(2) {
		t.Error("null should be missing")
	}
	if rel.Columns[rel.ColumnIndex("c")].MissingCount() != 2 {
		t.Error("absent keys should be missing")
	}
}

func TestReadJSONLRejectsNested(t *testing.T) {
	if _, err := ReadJSONL("t", strings.NewReader(`{"a":{"x":1}}`)); err == nil {
		t.Error("nested object accepted")
	}
	if _, err := ReadJSONL("t", strings.NewReader(`{"a":[1,2]}`)); err == nil {
		t.Error("array accepted")
	}
	if _, err := ReadJSONL("t", strings.NewReader(`not json`)); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := `{"name":"alice","score":3.5}
{"name":"bob","score":null}
`
	got, err := ReadJSONL("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	if v, _ := got.Columns[got.ColumnIndex("name")].Value(0); v != "alice" {
		t.Errorf("name[0] = %q", v)
	}
	if !got.Columns[got.ColumnIndex("score")].IsMissing(1) {
		t.Error("null round trip failed")
	}
	if got.Columns[got.ColumnIndex("score")].Float(0) != 3.5 {
		t.Error("numeric round trip failed")
	}
}

func TestJSONLEmptyAndBlankLines(t *testing.T) {
	rel, err := ReadJSONL("t", strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 0 || rel.NumCols() != 0 {
		t.Error("blank input should give empty relation")
	}
}

func TestLoadJSONLMissingFile(t *testing.T) {
	if _, err := LoadJSONL("/nonexistent/x.jsonl"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(3) != "3" || trimFloat(2.5) != "2.5" {
		t.Errorf("trimFloat: %q %q", trimFloat(3), trimFloat(2.5))
	}
}
