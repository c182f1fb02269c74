package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"unicode/utf8"
)

// inferenceSample is how many rows the type inferencer inspects per column.
const inferenceSample = 1000

// ReadCSV parses a relation from CSV with a header row. Column types are
// inferred: a column whose first 1000 non-empty values all parse as floats
// is Numeric; otherwise one of those values longer than 32 runes makes it
// Text; otherwise, and for a column with no values, it is Categorical.
// Empty cells are NULLs.
//
// The input is read in one pass, each cell interned straight into its
// column's dictionary and its code appended to a compact per-column
// stream (codeStream); each column's code slice is built once, at its
// exact length, when the input ends. It accepts
// exactly what encoding/csv's Reader with default settings accepts, and
// rejects the rest with the error that Reader returns: a *csv.ParseError
// wrapping csv.ErrQuote, csv.ErrBareQuote or csv.ErrFieldCount, or the
// underlying reader's error (io.EOF for an input with no header).
func ReadCSV(name string, r io.Reader) (*Relation, error) {
	d := csvDecoder{r: bufio.NewReader(r)}
	if err := d.record(); err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	rel := &Relation{Name: name}
	for _, h := range d.header {
		rel.Columns = append(rel.Columns, NewColumn(h, Categorical))
	}
	d.header, d.cols = nil, rel.Columns
	d.streams = make([]codeStream, len(d.cols))
	for {
		err := d.record()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row: %w", err)
		}
	}
	for j, c := range rel.Columns {
		c.codes = d.streams[j].codes()
		c.Type = c.inferredType()
	}
	return rel, nil
}

// LoadCSV reads a relation from a CSV file; the relation is named after the
// path.
func LoadCSV(path string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(path, f)
}

// WriteCSV serializes the relation as CSV with a header row; NULLs become
// empty cells.
func WriteCSV(r *Relation, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.AttrNames()); err != nil {
		return err
	}
	for i := 0; i < r.NumRows(); i++ {
		if err := cw.Write(r.Row(i)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the relation to the given file path.
func SaveCSV(r *Relation, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(r, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// csvDecoder reads records the way encoding/csv's Reader does with its
// default settings (comma-separated, RFC 4180 quoting, no comments,
// LazyQuotes off, FieldsPerRecord taken from the header), handing each
// field to its column instead of building a []string.
type csvDecoder struct {
	r       *bufio.Reader
	numLine int    // lines read so far
	raw     []byte // a line longer than r's buffer
	quoted  []byte // the unescaped bytes of the current quoted field

	header  []string     // the first record's fields, while it is read
	cols    []*Column    // the relation's columns, after the header
	streams []codeStream // each column's codes, until the input ends
	nf      int          // fields of the current record
}

// codeStream collects one column's codes while ReadCSV decodes: the
// uvarint of code+1 (0 for Missing) per cell, in chunks that double from
// firstChunk to maxChunk bytes. A dictionary of at most 127 values
// takes one byte a cell, against the four of an int32 that append would
// regrow and copy several times over.
type codeStream struct {
	full [][]byte // the chunks before cur
	cur  []byte
	n    int // cells
}

const firstChunk, maxChunk = 64, 1 << 16

func (s *codeStream) add(code int32) {
	if cap(s.cur)-len(s.cur) < binary.MaxVarintLen32 {
		size := firstChunk
		if s.cur != nil {
			s.full = append(s.full, s.cur)
			size = min(2*cap(s.cur), maxChunk)
		}
		s.cur = make([]byte, 0, size)
	}
	if v := uint32(code + 1); v < 0x80 {
		n := len(s.cur)
		s.cur = s.cur[:n+1]
		s.cur[n] = byte(v)
	} else {
		s.cur = binary.AppendUvarint(s.cur, uint64(v))
	}
	s.n++
}

// codes decodes the stream into one slice of exactly its length.
func (s *codeStream) codes() []int32 {
	out := make([]int32, s.n)
	i := 0
	for _, c := range append(s.full, s.cur) {
		for j := 0; j < len(c); i++ {
			if b := c[j]; b < 0x80 {
				out[i] = int32(b) - 1
				j++
				continue
			}
			v, m := binary.Uvarint(c[j:])
			out[i] = int32(v) - 1
			j += m
		}
	}
	return out
}

// readLine returns the next line with its '\n', "\r\n" folded to "\n"
// and a '\r' ending the input dropped. The line is valid until the next
// call.
func (d *csvDecoder) readLine() ([]byte, error) {
	line, err := d.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		d.raw = append(d.raw[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = d.r.ReadSlice('\n')
			d.raw = append(d.raw, line...)
		}
		line = d.raw
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	d.numLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL is 1 if b ends in '\n', else 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// fieldStop marks the bytes that end an unquoted field's scan: the comma
// and the newline end it, a quote is bare.
var fieldStop = func() (t [256]bool) {
	t[','], t['\n'], t['"'] = true, true, true
	return t
}()

// field hands the record's next field to the header or its column. The
// column interns a new value by copy, so b may alias the read buffers.
func (d *csvDecoder) field(b []byte) {
	switch {
	case d.cols == nil:
		d.header = append(d.header, string(b))
	case d.nf >= len(d.cols): // a ragged record, rejected once it ends
	case len(b) == 0:
		d.streams[d.nf].add(Missing)
	default:
		d.streams[d.nf].add(d.cols[d.nf].codeOfBytes(b))
	}
	d.nf++
}

// record reads the next record into the header or the columns. It
// returns io.EOF when the input ends before a record starts. Blank lines
// are skipped; a quoted field may span lines. Positions in a
// *csv.ParseError are 1-based lines and byte columns, as encoding/csv
// reports them.
func (d *csvDecoder) record() error {
	var line []byte
	var errRead error
	for errRead == nil {
		line, errRead = d.readLine()
		if errRead == nil && len(line) == lengthNL(line) {
			continue
		}
		break
	}
	if errRead == io.EOF {
		return errRead
	}
	var err error
	recLine := d.numLine
	posLine, posCol := d.numLine, 1
	d.nf = 0
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			i := 0
			for i < len(line) && !fieldStop[line[i]] {
				i++
			}
			if i < len(line) && line[i] == '"' {
				err = &csv.ParseError{StartLine: recLine, Line: d.numLine, Column: posCol + i, Err: csv.ErrBareQuote}
				break parseField
			}
			d.field(line[:i])
			if i < len(line) && line[i] == ',' {
				line = line[i+1:]
				posCol += i + 1
				continue parseField
			}
			break parseField
		}
		// A quoted field, unescaped into d.quoted until its closing quote.
		line = line[1:]
		posCol++
		q := d.quoted[:0]
		for {
			if i := bytes.IndexByte(line, '"'); i >= 0 {
				q = append(q, line[:i]...)
				line = line[i+1:]
				posCol += i + 1
				switch {
				case len(line) > 0 && line[0] == '"':
					q = append(q, '"')
					line = line[1:]
					posCol++
				case len(line) > 0 && line[0] == ',':
					line = line[1:]
					posCol++
					d.quoted = q
					d.field(q)
					continue parseField
				case lengthNL(line) == len(line):
					d.quoted = q
					d.field(q)
					break parseField
				default:
					err = &csv.ParseError{StartLine: recLine, Line: d.numLine, Column: posCol - 1, Err: csv.ErrQuote}
					break parseField
				}
			} else if len(line) > 0 {
				q = append(q, line...)
				if errRead != nil {
					break parseField
				}
				posCol += len(line)
				line, errRead = d.readLine()
				if len(line) > 0 {
					posLine++
					posCol = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			} else {
				d.quoted = q
				if errRead == nil {
					err = &csv.ParseError{StartLine: recLine, Line: posLine, Column: posCol, Err: csv.ErrQuote}
					break parseField
				}
				d.field(q)
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}
	if err == nil && d.cols != nil && d.nf != len(d.cols) {
		err = &csv.ParseError{StartLine: recLine, Line: recLine, Column: 1, Err: csv.ErrFieldCount}
	}
	return err
}

// inferredType is the column's Type by ReadCSV's rule over its first
// inferenceSample non-missing cells. Codes are numbered in order of first
// appearance, so the values those cells hold are exactly the codes up to
// the largest among them, and each is checked once.
func (c *Column) inferredType() Type {
	last, seen := int32(-1), 0
	for _, code := range c.codes {
		if seen == inferenceSample {
			break
		}
		if code != Missing {
			seen++
			last = max(last, code)
		}
	}
	if last < 0 {
		return Categorical
	}
	numeric, long := true, false
	for _, v := range c.dict[:last+1] {
		if numeric {
			_, numeric = parseFloat(v)
		}
		long = long || utf8.RuneCountInString(v) > 32
		if !numeric && long {
			break
		}
	}
	switch {
	case numeric:
		return Numeric
	case long:
		return Text
	default:
		return Categorical
	}
}
