package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestAppendAndLookup(t *testing.T) {
	r := New("t", "a", "b")
	if err := r.AppendRow([]string{"x", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := r.AppendRow([]string{"x", ""}); err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 2 || r.NumCols() != 2 {
		t.Fatalf("dims = %dx%d", r.NumRows(), r.NumCols())
	}
	if v, ok := r.Columns[0].Value(0); !ok || v != "x" {
		t.Errorf("Value(0) = %q, %v", v, ok)
	}
	if !r.Columns[1].IsMissing(1) {
		t.Error("empty cell should be missing")
	}
	if r.Columns[0].Code(0) != r.Columns[0].Code(1) {
		t.Error("same string should share a dictionary code")
	}
	if r.Columns[0].Cardinality() != 1 {
		t.Errorf("cardinality = %d, want 1", r.Columns[0].Cardinality())
	}
}

func TestAppendRowLengthMismatch(t *testing.T) {
	r := New("t", "a")
	if err := r.AppendRow([]string{"x", "y"}); err == nil {
		t.Error("expected error for wrong row width")
	}
}

func TestFloatParsing(t *testing.T) {
	c := NewColumn("n", Numeric)
	c.AppendValue("3.5")
	c.AppendValue("abc")
	c.AppendMissing()
	if c.Float(0) != 3.5 {
		t.Errorf("Float(0) = %v", c.Float(0))
	}
	if !math.IsNaN(c.Float(1)) {
		t.Error("non-numeric string should be NaN")
	}
	if !math.IsNaN(c.Float(2)) {
		t.Error("missing should be NaN")
	}
}

func TestMissingRateAndCount(t *testing.T) {
	r := New("t", "a", "b")
	r.AppendRow([]string{"x", ""})
	r.AppendRow([]string{"", ""})
	if got := r.MissingRate(); got != 0.75 {
		t.Errorf("MissingRate = %v, want 0.75", got)
	}
	if r.Columns[1].MissingCount() != 2 {
		t.Error("MissingCount wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := New("t", "a")
	r.AppendRow([]string{"x"})
	c := r.Clone()
	c.Columns[0].SetCode(0, Missing)
	if r.Columns[0].IsMissing(0) {
		t.Error("Clone shares storage")
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesRaggedColumns(t *testing.T) {
	r := New("t", "a", "b")
	r.Columns[0].AppendValue("x")
	if err := r.Validate(); err == nil {
		t.Error("Validate accepted ragged columns")
	}
}

func TestSetCodePanicsOutOfRange(t *testing.T) {
	c := NewColumn("a", Categorical)
	c.AppendValue("x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.SetCode(0, 5)
}

// TestNumsMatchParseFloat pins the intern routine's first-byte filter: a
// value's numeric slot is exactly strconv.ParseFloat's result (NaN on any
// error), through both AppendValue and AppendBytes.
func TestNumsMatchParseFloat(t *testing.T) {
	for _, v := range []string{
		"inf", "-Inf", "+Infinity", "NaN", "nan", "+.5", ".5", "-0", "0x1p-2", "1e400",
		"1_0", "0x_1p0", "_1", "v12", " 1", "1 ", "١", "e5", "N", "i", "-", ".", "+", "x",
	} {
		want, err := strconv.ParseFloat(v, 64)
		if err != nil {
			want = math.NaN()
		}
		byValue, byBytes := NewColumn("s", Categorical), NewColumn("b", Categorical)
		byValue.AppendValue(v)
		byBytes.AppendBytes([]byte(v))
		for _, c := range []*Column{byValue, byBytes} {
			if got := c.Float(0); math.Float64bits(got) != math.Float64bits(want) &&
				!(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s: nums[%q] = %v, ParseFloat gives %v", c.Name, v, got, want)
			}
		}
	}
}

func TestAppendBytesInternsWithoutAliasing(t *testing.T) {
	c := NewColumn("a", Categorical)
	buf := []byte("xy")
	c.AppendBytes(buf)
	c.AppendValue("xy")
	buf[0] = 'z'
	c.AppendBytes(buf)
	if c.Code(0) != c.Code(1) || c.Code(2) == c.Code(0) {
		t.Fatalf("codes %v: equal values must share a code, distinct ones not", c.Codes())
	}
	if v, _ := c.Value(0); v != "xy" {
		t.Errorf("dictionary aliases the appended bytes: value %q, want \"xy\"", v)
	}
	c.Grow(200)
	if allocs := testing.AllocsPerRun(100, func() { c.AppendBytes(buf) }); allocs > 0 {
		t.Errorf("appending a known value allocates %.1f times", allocs)
	}
}

// TestAppendBytesMatchesAppendValue: the recent-value cache in front of
// the index never changes a code, including for values that share a
// cache slot, the empty value, and values interned by CodeOf.
func TestAppendBytesMatchesAppendValue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got, want := NewColumn("a", Categorical), NewColumn("a", Categorical)
	for _, v := range []string{"pre", "a1b"} {
		got.CodeOf(v)
		want.CodeOf(v)
	}
	buf := make([]byte, 0, 8)
	for i := 0; i < 5000; i++ {
		// Same length and first and last bytes: one slot, 10 values.
		buf = append(buf[:0], 'a', byte('0'+rng.Intn(10)), 'b')
		if rng.Intn(7) == 0 {
			buf = buf[:rng.Intn(2)*3]
		}
		got.AppendBytes(buf)
		want.AppendValue(string(buf))
	}
	if !slices.Equal(got.codes, want.codes) || !slices.Equal(got.dict, want.dict) {
		t.Fatalf("AppendBytes codes differ from AppendValue's:\n%v\n%v", got.codes[:50], want.codes[:50])
	}
}

func TestCodeOfInterning(t *testing.T) {
	c := NewColumn("a", Categorical)
	x := c.CodeOf("x")
	if c.CodeOf("x") != x {
		t.Error("CodeOf not stable")
	}
	if c.DictValue(x) != "x" {
		t.Error("DictValue mismatch")
	}
	if c.Len() != 0 {
		t.Error("CodeOf should not append rows")
	}
}

func TestColumnIndexAndProject(t *testing.T) {
	r := New("t", "a", "b", "c")
	r.AppendRow([]string{"1", "2", "3"})
	if r.ColumnIndex("b") != 1 || r.ColumnIndex("zz") != -1 {
		t.Error("ColumnIndex wrong")
	}
	p := r.Project(2, 0)
	if p.NumCols() != 2 || p.Columns[0].Name != "c" || p.Columns[1].Name != "a" {
		t.Error("Project wrong columns")
	}
	p.Columns[1].SetCode(0, Missing)
	if r.Columns[0].IsMissing(0) {
		t.Error("Project shares storage with original")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nrows := rng.Intn(20)
		r := New("t", "a", "b", "c")
		for i := 0; i < nrows; i++ {
			row := make([]string, 3)
			for j := range row {
				if rng.Intn(5) == 0 {
					row[j] = "" // missing
				} else {
					row[j] = "v" + strconv.Itoa(rng.Intn(6))
				}
			}
			r.AppendRow(row)
		}
		var buf bytes.Buffer
		if err := WriteCSV(r, &buf); err != nil {
			return false
		}
		got, err := ReadCSV("t", &buf)
		if err != nil {
			return false
		}
		if got.NumRows() != r.NumRows() || got.NumCols() != r.NumCols() {
			return false
		}
		for i := 0; i < r.NumRows(); i++ {
			a, b := r.Row(i), got.Row(i)
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSVTypeInference(t *testing.T) {
	csvData := "num,cat,txt\n1.5,red," + strings.Repeat("x", 40) + "\n2,blue,short\n,green,\n"
	r, err := ReadCSV("t", strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if r.Columns[0].Type != Numeric {
		t.Errorf("col 0 type = %v, want numeric", r.Columns[0].Type)
	}
	if r.Columns[1].Type != Categorical {
		t.Errorf("col 1 type = %v, want categorical", r.Columns[1].Type)
	}
	if r.Columns[2].Type != Text {
		t.Errorf("col 2 type = %v, want text", r.Columns[2].Type)
	}
	if !r.Columns[0].IsMissing(2) {
		t.Error("empty numeric cell should be missing")
	}
}

func TestCSVEmptyBody(t *testing.T) {
	r, err := ReadCSV("t", strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 0 || r.NumCols() != 2 {
		t.Error("empty-body CSV parsed wrong")
	}
}

func TestCSVMalformedHeader(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("")); err == nil {
		t.Error("expected error on empty input")
	}
}

func TestTypeString(t *testing.T) {
	if Categorical.String() != "categorical" || Numeric.String() != "numeric" || Text.String() != "text" {
		t.Error("Type.String wrong")
	}
	if Type(99).String() == "" {
		t.Error("unknown type should still render")
	}
}

func TestCodesViewAndEmptyRelation(t *testing.T) {
	c := NewColumn("a", Categorical)
	c.AppendValue("x")
	if codes := c.Codes(); len(codes) != 1 || codes[0] != 0 {
		t.Errorf("Codes = %v", codes)
	}
	empty := New("t")
	if empty.NumRows() != 0 {
		t.Error("column-less relation should have zero rows")
	}
	if empty.MissingRate() != 0 {
		t.Error("column-less relation missing rate should be 0")
	}
}

func TestSaveCSVErrors(t *testing.T) {
	r := New("t", "a")
	r.AppendRow([]string{"x"})
	if err := SaveCSV(r, "/nonexistent-dir/file.csv"); err == nil {
		t.Error("SaveCSV to bad path should error")
	}
	if _, err := LoadCSV("/nonexistent-dir/file.csv"); err == nil {
		t.Error("LoadCSV of missing file should error")
	}
}

func TestValidateCatchesCorruptCode(t *testing.T) {
	r := New("t", "a")
	r.AppendRow([]string{"x"})
	r.Columns[0].Codes()[0] = 99 // corrupt via the raw view
	if err := r.Validate(); err == nil {
		t.Error("corrupt dictionary code not caught")
	}
}

func TestSaveAndLoadCSV(t *testing.T) {
	r := New("t", "a", "b")
	r.AppendRow([]string{"1", "x"})
	path := t.TempDir() + "/out.csv"
	if err := SaveCSV(r, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 || got.Row(0)[1] != "x" {
		t.Error("LoadCSV round trip failed")
	}
}
