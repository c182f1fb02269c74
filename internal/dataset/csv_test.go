package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"
)

// The CSV decode: ReadCSV against its encoding/csv oracle, accepting and
// rejecting the same inputs, with the same errors and identical relations.

// oracleReadCSV is ReadCSV's reference: encoding/csv's Reader keeps every
// record, inferType types each column from the records, and AppendRow
// interns them in row order.
func oracleReadCSV(name string, r io.Reader) (*Relation, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row: %w", err)
		}
		rows = append(rows, rec)
	}
	rel := &Relation{Name: name}
	for j, h := range header {
		rel.Columns = append(rel.Columns, NewColumn(h, inferType(rows, j)))
	}
	for i, rec := range rows {
		if err := rel.AppendRow(rec); err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", i, err)
		}
	}
	return rel, nil
}

// inferType is the type rule over the records: column col's first
// inferenceSample non-empty values.
func inferType(rows [][]string, col int) Type {
	numeric := true
	seen := 0
	long := false
	for i := 0; i < len(rows) && seen < inferenceSample; i++ {
		if col >= len(rows[i]) {
			continue
		}
		v := rows[i][col]
		if v == "" {
			continue
		}
		seen++
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			numeric = false
		}
		if len([]rune(v)) > 32 {
			long = true
		}
	}
	switch {
	case seen == 0:
		return Categorical
	case numeric:
		return Numeric
	case long:
		return Text
	default:
		return Categorical
	}
}

// relationDiff describes the first difference between got and want in
// name, shape, column names and types, codes, dictionary or numeric
// values (bit for bit), or returns "".
func relationDiff(got, want *Relation) string {
	if got.Name != want.Name || !slices.Equal(got.AttrNames(), want.AttrNames()) || got.NumRows() != want.NumRows() {
		return fmt.Sprintf("relation %q %q x %d rows, want %q %q x %d rows",
			got.Name, got.AttrNames(), got.NumRows(), want.Name, want.AttrNames(), want.NumRows())
	}
	for j, g := range got.Columns {
		w := want.Columns[j]
		switch {
		case g.Type != w.Type:
			return fmt.Sprintf("column %d type %v, want %v", j, g.Type, w.Type)
		case !slices.Equal(g.codes, w.codes):
			return fmt.Sprintf("column %d codes %v, want %v", j, g.codes, w.codes)
		case !slices.Equal(g.dict, w.dict):
			return fmt.Sprintf("column %d dictionary %q, want %q", j, g.dict, w.dict)
		case !slices.EqualFunc(g.nums, w.nums, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }):
			return fmt.Sprintf("column %d numbers %v, want %v", j, g.nums, w.nums)
		}
		if len(g.index) != len(g.dict) {
			return fmt.Sprintf("column %d indexes %d values, has %d", j, len(g.index), len(g.dict))
		}
		for code, v := range g.dict {
			if got, ok := g.index[v]; !ok || got != int32(code) {
				return fmt.Sprintf("column %d index misses %q at code %d", j, v, code)
			}
		}
	}
	return ""
}

// errorDiff describes how ReadCSV's error got differs from the oracle's
// want, or returns "": the same message, the same *csv.ParseError
// (lines, column and cause), or else the same reader error.
func errorDiff(got, want error) string {
	if got.Error() != want.Error() {
		return fmt.Sprintf("error %q, want %q", got, want)
	}
	var gpe, wpe *csv.ParseError
	switch {
	case errors.As(got, &gpe) != errors.As(want, &wpe):
		return fmt.Sprintf("error %#v, want %#v", errors.Unwrap(got), errors.Unwrap(want))
	case gpe != nil && *gpe != *wpe:
		return fmt.Sprintf("parse error %+v, want %+v", *gpe, *wpe)
	case gpe == nil && errors.Unwrap(got) != errors.Unwrap(want):
		return fmt.Sprintf("reader error %#v, want %#v", errors.Unwrap(got), errors.Unwrap(want))
	}
	return ""
}

// checkCSVParity fails t unless ReadCSV and the oracle agree on the input
// each reader returned by open yields: both reject it with the same error,
// or both accept it with identical relations. It returns ReadCSV's
// relation, nil on a rejection.
func checkCSVParity(t *testing.T, what string, open func() io.Reader) *Relation {
	t.Helper()
	rel, err := ReadCSV("t", open())
	want, werr := oracleReadCSV("t", open())
	switch {
	case err != nil && werr != nil:
		if d := errorDiff(err, werr); d != "" {
			t.Fatalf("%s: %s", what, d)
		}
		return nil
	case err != nil:
		t.Fatalf("%s: rejected (%v), encoding/csv accepts it", what, err)
	case werr != nil:
		t.Fatalf("%s: accepted, encoding/csv rejects it (%v)", what, werr)
	}
	if d := relationDiff(rel, want); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
	return rel
}

// numericRun is a header and rows whose column x holds n numeric cells,
// with a NULL every seventh row, so x's next cell is its (n+1)th.
func numericRun(n int) string {
	var b strings.Builder
	b.WriteString("x,y\n")
	for i, seen := 0, 0; seen < n; i++ {
		if i%7 == 3 {
			fmt.Fprintf(&b, ",%d\n", i)
			continue
		}
		seen++
		fmt.Fprintf(&b, "%d.5,%d\n", i%13, i)
	}
	return b.String()
}

// manyValues is a relation of n rows over wide, mostly distinct cells,
// quoted when quote is set, far longer than the reader's buffer.
func manyValues(n int, quote bool) string {
	var b strings.Builder
	b.WriteString("k,v\n")
	for i := 0; i < n; i++ {
		if quote {
			fmt.Fprintf(&b, "\"key \"\"%d\"\"\",\"line %d\nof %d\"\n", i%97, i, n)
		} else {
			fmt.Fprintf(&b, "key-%d,value-%d-%s\n", i%97, i, strings.Repeat("p", i%40))
		}
	}
	return b.String()
}

// csvCases are the CSV edge cases, with whether encoding/csv (and so
// ReadCSV) accepts each.
var csvCases = []struct {
	name, data string
	accept     bool
}{
	{"plain", "a,b\n1,2\n3,\n", true},
	{"no final newline", "a,b\n1,2\n3,4", true},
	{"crlf", "a,b\r\n1,2\r\nx,\r\n", true},
	{"crlf in quotes", "a,b\r\n\"x\r\ny\",2\r\n", true},
	{"lone cr is data", "a,b\n1\r2,3\n\"x\ry\",\r\n", true},
	{"cr before cr lf", "a,b\n1,2\r\r\n", true},
	{"cr at eof", "a,b\n1,2\r", true},
	{"cr cr at eof", "a,b\n1,2\r\r", true},
	{"blank lines", "\n\r\n\na,b\n\n1,2\n\r\n\n3,4\n\n", true},
	{"whitespace line", "a,b\n \n", false},
	{"whitespace line one column", "a\n \n\t\n1\n", true},
	{"whitespace around fields", "a , b\n 1 , \"x\"\n", false},
	{"quote open at eof", "a,b\n\"x,1\n", false},
	{"quote open at eof after newline", "a,b\n1,\"x\n\n", false},
	{"quote open in header", "\"a,b\n", false},
	{"quoted multiline", "a,b\n\"line1\nline2\n\nline4\",2\n", true},
	{"quoted escapes", "a,b\n\"say \"\"hi\"\"\",\"\"\"\"\n", true},
	{"quoted comma", "a,b\n\"1,5\",\"x,\"\n", true},
	{"quote then text", "a,b\n\"x\"y,2\n", false},
	{"quote then text on later line", "a,b\n\"x\ny\"z,2\n", false},
	{"quote then space", "a,b\n\"x\" ,2\n", false},
	{"bare quote", "a,b\n1,x\"y\n", false},
	{"bare quote at field end", "a,b\n1,x\"\n", false},
	{"bare quote in header", "a,b\"\n1,2\n", false},
	{"bare quote after extra field", "a,b\n1,2,3\"\n", false},
	{"too many fields", "a,b\n1,2,3\n", false},
	{"too few fields", "a,b\n1\n", false},
	{"ragged after good rows", "a,b\n1,2\n3,4\n5\n", false},
	{"ragged quoted multiline", "a,b\n\"x\ny\"\n", false},
	{"bom", "\xef\xbb\xbfa,b\n1,2\n", true},
	{"bom in data", "a,b\n\xef\xbb\xbf1,2\n", true},
	{"invalid utf8", "a,b\n\xff\xfe,\xc3\n", true},
	{"nul bytes", "a,b\n\x00,\"\x00\"\n", true},
	{"empty input", "", false},
	{"only blank lines", "\n\r\n\n", false},
	{"header no rows", "a,b\n", true},
	{"header no newline", "a,b", true},
	{"header then blank lines", "a,b\n\n\n", true},
	{"empty header name", ",b\n1,2\n", true},
	{"quoted empty header", "\"\"\n\"\"\n1\n", true},
	{"duplicate header names", "a,a\n1,2\n", true},
	{"quoted empty fields", "a,b,c\n\"\",x,\"\"\n,\"\",\n", true},
	{"all-empty column", "a,b\n1,\n2,\n3,\"\"\n", true},
	{"nan and inf", "x,y,z\nNaN,inf,-Infinity\nnan,+Inf,1e-400\n", true},
	{"overflow is not numeric", "x,y\n1e400,1\n2,-1e309\n", true},
	{"numeric syntax", "x,y,z\n0x1p-2,1_0,+.5\n.5,0x1_0p0, 1\n", true},
	{"text by runes", "a,b,c\n" + strings.Repeat("é", 32) + "," + strings.Repeat("é", 33) + "," + strings.Repeat("\xff", 33) + "\n", true},
	{"text beside numeric", "a,b\n" + strings.Repeat("x", 40) + ",1\nshort,2\n", true},
	{"numeric past the sample", numericRun(inferenceSample) + "abc,1\n", true},
	{"non-numeric inside the sample", numericRun(inferenceSample-1) + "abc,1\n", true},
	{"long value past the sample", strings.Replace(numericRun(inferenceSample), "x,y", "x,y\nred,0", 1) + strings.Repeat("z", 40) + ",0\n", true},
	{"many values", manyValues(700, false), true},
	{"many quoted values", manyValues(300, true), true},
	{"long line", "a,b\n" + strings.Repeat("v", 9000) + ",2\n1,\"" + strings.Repeat("q\"\"", 3000) + "\"\n", true},
	{"long line bare quote", "a,b\n" + strings.Repeat("v", 9000) + "\",2\n", false},
	{"long quoted line open at eof", "a,b\n1,\"" + strings.Repeat("q", 9000), false},
}

func TestReadCSVParity(t *testing.T) {
	for _, c := range csvCases {
		open := func() io.Reader { return strings.NewReader(c.data) }
		if got := checkCSVParity(t, c.name, open) != nil; got != c.accept {
			t.Errorf("%s: accepted %v, want %v", c.name, got, c.accept)
		}
		// One byte per read moves every line across the buffer's refills.
		checkCSVParity(t, c.name+" (one byte per read)", func() io.Reader { return iotest.OneByteReader(open()) })
	}
}

// TestReadCSVReaderError: a failing reader fails ReadCSV with its own
// error wherever it strikes, unless a parse error comes first.
func TestReadCSVReaderError(t *testing.T) {
	boom := errors.New("boom")
	for _, prefix := range []string{
		"", "a,b", "a,b\n", "a,b\n1,", "a,b\n1,2\n\"x", "a,b\n1,\"x\ny", "a,b\n1,\"x\"", "a,b\n1,\"x\"\"",
		"a,b\n1,x\"y", "a,b\n1,\"x\"y", "a,b\n1,2\n3", "a,b\n1,2,3", "a,b\r",
	} {
		open := func() io.Reader { return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(boom)) }
		checkCSVParity(t, fmt.Sprintf("%q then an error", prefix), open)
	}
}

// TestReadCSVTypes pins the type rule on the cases it turns on.
func TestReadCSVTypes(t *testing.T) {
	for _, c := range []struct {
		data string
		want []Type
	}{
		{numericRun(inferenceSample) + "abc,1\n", []Type{Numeric, Numeric}},
		{numericRun(inferenceSample-1) + "abc,1\n", []Type{Categorical, Numeric}},
		{"x,y,z\nNaN,inf,-Infinity\n", []Type{Numeric, Numeric, Numeric}},
		{"x,y\n1e400,1\n", []Type{Categorical, Numeric}},
		{"a,b\n" + strings.Repeat("é", 32) + "," + strings.Repeat("é", 33) + "\n", []Type{Categorical, Text}},
		{"a,b\n1,\n2,\"\"\n", []Type{Numeric, Categorical}},
	} {
		rel, err := ReadCSV("t", strings.NewReader(c.data))
		if err != nil {
			t.Fatal(err)
		}
		for j, col := range rel.Columns {
			if col.Type != c.want[j] {
				t.Errorf("%.40q...: column %d is %v, want %v", c.data, j, col.Type, c.want[j])
			}
		}
	}
}

// TestReadCSVCodeStreamWidths reads columns whose codes cross every
// uvarint length the code stream uses below 2²¹ values (1, 2 and 3
// bytes), with NULLs between them, and matches the oracle code for code.
func TestReadCSVCodeStreamWidths(t *testing.T) {
	var b strings.Builder
	b.WriteString("wide,small,null\n")
	for i := 0; i < 20000; i++ {
		switch {
		case i%11 == 5:
			fmt.Fprintf(&b, ",s%d,\n", i%3)
		default:
			fmt.Fprintf(&b, "w%d,s%d,\n", i, i%3)
		}
	}
	data := b.String()
	rel := checkCSVParity(t, "20,000 distinct values", func() io.Reader { return strings.NewReader(data) })
	if got := rel.Columns[0].Cardinality(); got <= 1<<14 {
		t.Fatalf("wide column has %d values, want more than %d", got, 1<<14)
	}
}

// TestReadCSVAllocBound bounds what ReadCSV allocates on a tall,
// small-domain CSV (50,000 rows × 37 columns of at most 4 values, the
// benchmark's Alarm shape): under twice the relation it returns, its
// final codes plus dictionaries. Growing each column's codes by append
// allocated about four times the final codes.
func TestReadCSVAllocBound(t *testing.T) {
	const rows, cols = 50000, 37
	var b strings.Builder
	for j := 0; j < cols; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "a%d", j)
	}
	b.WriteByte('\n')
	state := uint32(1)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			state = state*1664525 + 1013904223
			b.WriteString([]string{"LOW", "NORMAL", "HIGH", "ZERO"}[state>>30&3%uint32(2+j%3)])
		}
		b.WriteByte('\n')
	}
	data := b.String()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rel, err := ReadCSV("tall", strings.NewReader(data))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	final := 0
	for _, c := range rel.Columns {
		final += 4 * c.Len()
		for _, v := range c.dict {
			final += len(v) + int(unsafe.Sizeof(v))
		}
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*uint64(final) {
		t.Errorf("ReadCSV allocated %d bytes for a relation of %d (codes and dictionaries), want under 2×", got, final)
	}
}
