// Package dataset models the relational input of FD discovery: a relation
// with named, typed attributes, dictionary-encoded values, and explicit
// missing values. It also provides CSV I/O with type inference.
//
// Values are stored column-major as int32 dictionary codes. The sentinel
// Missing marks NULL cells. Numeric columns additionally retain their parsed
// float64 values so difference operators can use approximate equality.
package dataset

import (
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Missing is the dictionary code of a NULL cell.
const Missing int32 = -1

// Type describes the domain of an attribute.
type Type int

const (
	// Categorical attributes compare by exact value equality.
	Categorical Type = iota
	// Numeric attributes carry float64 values and support approximate
	// equality in the pair transform.
	Numeric
	// Text attributes are free-form strings; the pair transform may use a
	// similarity-based difference operator.
	Text
)

// String returns the lowercase name of the type.
func (t Type) String() string {
	switch t {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Column is one attribute of a relation.
type Column struct {
	Name string
	Type Type

	// codes holds one dictionary code per tuple; Missing for NULLs.
	codes []int32
	// dict maps a code to its string value.
	dict []string
	// index maps a string value to its code.
	index map[string]int32
	// nums holds parsed values for Numeric columns (NaN where missing),
	// indexed by code.
	nums []float64
	// recent is a direct-mapped cache in front of index for AppendBytes:
	// slot recentSlot(b) holds the code+1 of the last value looked up
	// there, 0 while empty. A hit is checked against dict, so a stale or
	// colliding slot can only miss.
	recent [recentSlots]int32
}

// NewColumn returns an empty column with the given name and type.
func NewColumn(name string, typ Type) *Column {
	return &Column{Name: name, Type: typ, index: make(map[string]int32)}
}

// Len returns the number of tuples in the column.
func (c *Column) Len() int { return len(c.codes) }

// Cardinality returns the number of distinct non-missing values seen.
func (c *Column) Cardinality() int { return len(c.dict) }

// Code returns the dictionary code of tuple i (Missing for NULL).
func (c *Column) Code(i int) int32 { return c.codes[i] }

// Codes returns the backing code slice (shared).
func (c *Column) Codes() []int32 { return c.codes }

// Value returns the string value of tuple i and whether it is present.
func (c *Column) Value(i int) (string, bool) {
	code := c.codes[i]
	if code == Missing {
		return "", false
	}
	return c.dict[code], true
}

// Float returns the numeric value of tuple i; NaN if missing or the column
// is not numeric-parsable.
func (c *Column) Float(i int) float64 {
	code := c.codes[i]
	if code == Missing || int(code) >= len(c.nums) {
		return math.NaN()
	}
	return c.nums[code]
}

// IsMissing reports whether tuple i is NULL.
func (c *Column) IsMissing(i int) bool { return c.codes[i] == Missing }

// MissingCount returns the number of NULL cells.
func (c *Column) MissingCount() int {
	n := 0
	for _, v := range c.codes {
		if v == Missing {
			n++
		}
	}
	return n
}

// AppendValue appends a string cell, interning it in the dictionary.
func (c *Column) AppendValue(v string) { c.codes = append(c.codes, c.CodeOf(v)) }

// AppendBytes appends the cell whose value is b, interning it in the
// dictionary. A value already in the dictionary costs no allocation, and
// one recently appended usually no map lookup; a new one is copied into a
// fresh string, so the column never aliases b.
func (c *Column) AppendBytes(b []byte) { c.codes = append(c.codes, c.codeOfBytes(b)) }

// codeOfBytes returns the dictionary code of the value b, interning a copy
// of it if new.
func (c *Column) codeOfBytes(b []byte) int32 {
	slot := &c.recent[recentSlot(b)]
	if code := *slot - 1; code >= 0 && c.dict[code] == string(b) {
		return code
	}
	code, ok := c.index[string(b)]
	if !ok {
		code = c.intern(string(b))
	}
	*slot = code + 1
	return code
}

// recentSlots is the size of Column.recent, a power of two.
const recentSlots = 64

// recentSlot is b's slot in Column.recent, hashed from its length and
// its first and last bytes.
func recentSlot(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	return int(uint(len(b))*7+uint(b[0])*3+uint(b[len(b)-1])) & (recentSlots - 1)
}

// Grow reserves room for n more tuples.
func (c *Column) Grow(n int) { c.codes = slices.Grow(c.codes, n) }

// AppendMissing appends a NULL cell.
func (c *Column) AppendMissing() { c.codes = append(c.codes, Missing) }

// SetCode overwrites the code of tuple i. The code must be Missing or an
// existing dictionary code; panics otherwise.
func (c *Column) SetCode(i int, code int32) {
	if code != Missing && int(code) >= len(c.dict) {
		panic(fmt.Sprintf("dataset: SetCode %d out of dictionary range %d", code, len(c.dict)))
	}
	c.codes[i] = code
}

// CodeOf returns the dictionary code for value v, interning it if new.
func (c *Column) CodeOf(v string) int32 {
	if code, ok := c.index[v]; ok {
		return code
	}
	return c.intern(v)
}

// intern adds v, known to be absent, to the dictionary and returns its
// code.
func (c *Column) intern(v string) int32 {
	code := int32(len(c.dict))
	c.index[v] = code
	c.dict = append(c.dict, v)
	c.nums = append(c.nums, parseNum(v))
	return code
}

// parseNum is v's numeric value, NaN when strconv.ParseFloat rejects it.
func parseNum(v string) float64 {
	if f, ok := parseFloat(v); ok {
		return f
	}
	return math.NaN()
}

// parseFloat is strconv.ParseFloat(v, 64), with ok reporting that it
// accepts v. ParseFloat accepts nothing whose first byte is outside
// [0-9+-.iInN] (digits, signs, a leading point, inf/infinity, nan), so
// such values skip the call and the *NumError it would allocate.
func parseFloat(v string) (float64, bool) {
	if v == "" || !mayStartFloat[v[0]] {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil
}

// mayStartFloat marks the bytes a string ParseFloat accepts can begin with.
var mayStartFloat = func() (t [256]bool) {
	for _, b := range []byte("0123456789+-.iInN") {
		t[b] = true
	}
	return t
}()

// DictValue returns the string for a dictionary code.
func (c *Column) DictValue(code int32) string { return c.dict[code] }

// Relation is a named table with typed columns of equal length.
type Relation struct {
	Name    string
	Columns []*Column
}

// New returns an empty relation with the given attribute names, all
// categorical.
func New(name string, attrs ...string) *Relation {
	r := &Relation{Name: name}
	for _, a := range attrs {
		r.Columns = append(r.Columns, NewColumn(a, Categorical))
	}
	return r
}

// NumRows returns the tuple count (0 for a column-less relation).
func (r *Relation) NumRows() int {
	if len(r.Columns) == 0 {
		return 0
	}
	return r.Columns[0].Len()
}

// NumCols returns the attribute count.
func (r *Relation) NumCols() int { return len(r.Columns) }

// AttrNames returns the attribute names in order.
func (r *Relation) AttrNames() []string {
	names := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		names[i] = c.Name
	}
	return names
}

// ColumnIndex returns the index of the named attribute, or -1.
func (r *Relation) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// AppendRow appends one tuple given as strings; empty strings become NULLs.
func (r *Relation) AppendRow(values []string) error {
	if len(values) != len(r.Columns) {
		return fmt.Errorf("dataset: row has %d values, relation has %d columns", len(values), len(r.Columns))
	}
	for i, v := range values {
		if v == "" {
			r.Columns[i].AppendMissing()
		} else {
			r.Columns[i].AppendValue(v)
		}
	}
	return nil
}

// Row materializes tuple i as strings (empty string for NULL).
func (r *Relation) Row(i int) []string {
	out := make([]string, len(r.Columns))
	for j, c := range r.Columns {
		if v, ok := c.Value(i); ok {
			out[j] = v
		}
	}
	return out
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{Name: r.Name}
	for _, c := range r.Columns {
		nc := NewColumn(c.Name, c.Type)
		nc.codes = append([]int32(nil), c.codes...)
		nc.dict = append([]string(nil), c.dict...)
		nc.nums = append([]float64(nil), c.nums...)
		for v, code := range c.index {
			nc.index[v] = code
		}
		out.Columns = append(out.Columns, nc)
	}
	return out
}

// Validate checks structural invariants: equal column lengths and in-range
// codes.
func (r *Relation) Validate() error {
	n := r.NumRows()
	for _, c := range r.Columns {
		if c.Len() != n {
			return fmt.Errorf("dataset: column %q has %d rows, expected %d", c.Name, c.Len(), n)
		}
		for i, code := range c.codes {
			if code != Missing && (code < 0 || int(code) >= len(c.dict)) {
				return fmt.Errorf("dataset: column %q row %d has invalid code %d", c.Name, i, code)
			}
		}
	}
	return nil
}

// MissingRate returns the fraction of NULL cells over all cells.
func (r *Relation) MissingRate() float64 {
	total := r.NumRows() * r.NumCols()
	if total == 0 {
		return 0
	}
	miss := 0
	for _, c := range r.Columns {
		miss += c.MissingCount()
	}
	return float64(miss) / float64(total)
}

// Slice returns rows [lo, hi) as a new relation sharing no storage with r,
// preserving column names, types, dictionaries, and numeric values.
// Panics if the range is out of bounds or inverted.
func (r *Relation) Slice(lo, hi int) *Relation {
	if lo < 0 || hi < lo || hi > r.NumRows() {
		panic(fmt.Sprintf("dataset: Slice [%d, %d) out of range for %d rows", lo, hi, r.NumRows()))
	}
	out := &Relation{Name: r.Name}
	for _, c := range r.Columns {
		nc := NewColumn(c.Name, c.Type)
		nc.codes = append([]int32(nil), c.codes[lo:hi]...)
		nc.dict = append([]string(nil), c.dict...)
		nc.nums = append([]float64(nil), c.nums...)
		for v, code := range c.index {
			nc.index[v] = code
		}
		out.Columns = append(out.Columns, nc)
	}
	return out
}

// Gather returns the given rows, in order, as a new relation sharing no
// storage with r: the same names and types, each column's codes
// renumbered in first-appearance order over the gathered rows, and only
// the values they use in its dictionary and numeric values. It is the
// relation AppendRow of each gathered Row builds (an empty dictionary
// value reads back as NULL), without turning cells back into strings.
// Panics if a row is out of range.
func (r *Relation) Gather(rows []int) *Relation {
	out := &Relation{Name: r.Name}
	for _, c := range r.Columns {
		nc := NewColumn(c.Name, c.Type)
		nc.codes = make([]int32, len(rows))
		next := make([]int32, len(c.dict)) // new code + 1; 0 = not yet seen
		for i, row := range rows {
			code := c.codes[row]
			if code == Missing || c.dict[code] == "" {
				nc.codes[i] = Missing
				continue
			}
			if next[code] == 0 {
				nc.index[c.dict[code]] = int32(len(nc.dict))
				nc.dict = append(nc.dict, c.dict[code])
				nc.nums = append(nc.nums, c.nums[code])
				next[code] = int32(len(nc.dict))
			}
			nc.codes[i] = next[code] - 1
		}
		out.Columns = append(out.Columns, nc)
	}
	return out
}

// Project returns a new relation containing only the given column indices
// (sharing no storage with r).
func (r *Relation) Project(cols ...int) *Relation {
	out := &Relation{Name: r.Name}
	clone := r.Clone()
	for _, j := range cols {
		out.Columns = append(out.Columns, clone.Columns[j])
	}
	return out
}
