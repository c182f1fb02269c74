package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"fdx"
)

// maxBodyBytes bounds every request body fdxd reads: session creation,
// /rows batches and shard snapshots. Snapshot size grows with the
// attribute count squared and a batch with its row count, so 64 MiB is far
// beyond any legitimate request; a larger body is a protocol error, not
// big data.
const maxBodyBytes = 64 << 20

// limitBody caps r's body at maxBodyBytes. A declared larger length is
// refused before a byte is read; an undeclared one fails the read past the
// cap, which bodyError maps to the same 413.
func limitBody(w http.ResponseWriter, r *http.Request) *httpError {
	if r.ContentLength > maxBodyBytes {
		return tooLarge()
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	return nil
}

// bodyError maps a failed body read or decode: past the cap is 413, any
// other failure 400, both bad_input.
func bodyError(what string, err error) *httpError {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return tooLarge()
	}
	return serveError(http.StatusBadRequest, CodeBadInput, what+": "+err.Error())
}

func tooLarge() *httpError {
	return serveError(http.StatusRequestEntityTooLarge, CodeBadInput,
		fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
}

// maxPooledBody keeps outsized bodies out of bodyPool, so one large batch
// does not pin its buffer for the life of the process.
const maxPooledBody = 4 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r's body, capped by limitBody, into a pooled buffer sized
// from Content-Length. The length is only the client's claim, so it
// presizes at most maxPooledBody; past that the buffer grows as bytes
// arrive, and a client that declares 64 MiB and then stalls cannot make
// the server hold 64 MiB. Hand the buffer back with putBody once nothing
// refers to its bytes.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, *httpError) {
	if herr := limitBody(w, r); herr != nil {
		return nil, herr
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPooledBody)) + bytes.MinRead) // room for the EOF read too
	}
	if _, err := buf.ReadFrom(r.Body); err != nil {
		putBody(buf)
		return nil, bodyError("reading request body", err)
	}
	return buf, nil
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// decodeRows parses a POST /v1/sessions/{id}/rows body in one pass,
// interning each cell's bytes straight into the batch relation's columns.
//
// It accepts exactly the bodies encoding/json's Decoder, with
// DisallowUnknownFields, accepts into
//
//	struct { Seq int `json:"seq"`; Rows [][]string `json:"rows"` }
//
// with the "rows" key given once, and yields the same seq and rows; the
// accepted batch must then have seq >= 1, at least one row and len(names)
// cells in every row. That covers keys matched case-insensitively after
// unescaping, a repeated "seq" key's last value winning, null leaving seq
// as it was, and bytes after the object being ignored (rows_test.go holds
// the encoding/json oracle). A repeated "rows" key and a row of the wrong
// width are rejected where they are met. A null or empty cell is Missing,
// as in Relation.AppendRow, and the relation is the one AppendRow builds
// from the decoded rows: the same codes in first-appearance order,
// dictionary and numeric values. The relation never aliases body.
func decodeRows(body []byte, names []string) (int, *fdx.Relation, *httpError) {
	d := rowsDecoder{buf: body, rel: fdx.NewRelation("wire", names...)}
	hint := rowsHint(body, len(names))
	for _, c := range d.rel.Columns {
		c.Grow(hint)
	}
	if err := d.body(); err != nil {
		return 0, nil, serveError(http.StatusBadRequest, CodeBadInput, "parsing request body: "+err.Error())
	}
	if d.seq < 1 {
		return 0, nil, serveError(http.StatusBadRequest, CodeBadInput, "seq must be >= 1")
	}
	if d.nrows == 0 {
		return 0, nil, serveError(http.StatusBadRequest, CodeBadInput, "rows must be non-empty")
	}
	return d.seq, d.rel, nil
}

// rowsHint sizes the columns for the batch: a row opens one '[' and takes
// at least 3 bytes per cell (`"",` or more), so the smaller of the two
// bounds the row count without trusting either alone. It reads at most
// maxPooledBody bytes, so a body not yet validated presizes about that
// much at most; a longer batch's columns grow as its cells are appended.
func rowsHint(body []byte, ncols int) int {
	body = body[:min(len(body), maxPooledBody)]
	return min(bytes.Count(body, []byte{'['}), len(body)/(3*ncols+2)+1)
}

// rowsDecoder is the state of one decodeRows pass, which appends each
// row's cells to the relation's columns.
type rowsDecoder struct {
	buf     []byte
	pos     int
	rel     *fdx.Relation
	seq     int
	sawRows bool // a "rows" key came before
	nrows   int  // rows appended

	scratch []byte // unescaped string bytes
}

// next skips whitespace and returns the byte at pos, 0 at the end of the
// body (a NUL is invalid wherever next is called).
func (d *rowsDecoder) next() byte {
	for ; d.pos < len(d.buf); d.pos++ {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// fail describes the byte at pos as the reason the body is rejected.
func (d *rowsDecoder) fail(want string) error {
	if d.pos >= len(d.buf) {
		return fmt.Errorf("unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.buf[d.pos], d.pos, want)
}

// null consumes a null literal at pos.
func (d *rowsDecoder) null() error {
	if !bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		return d.fail("null")
	}
	d.pos += 4
	return nil
}

// body parses the top-level value. A top-level null decodes to nothing,
// as encoding/json leaves the target untouched.
func (d *rowsDecoder) body() error {
	switch d.next() {
	case 'n':
		return d.null()
	case '{':
		d.pos++
	default:
		return d.fail("an object")
	}
	if d.next() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.next() != '"' {
			return d.fail("an object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.next() != ':' {
			return d.fail("':'")
		}
		d.pos++
		switch {
		case bytes.EqualFold(key, []byte("seq")):
			err = d.seqValue()
		case bytes.EqualFold(key, []byte("rows")):
			err = d.rowsValue()
		default:
			return fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.pos++
		case '}':
			return nil // what follows the object is not read, as in json.Decoder
		default:
			return d.fail("',' or '}'")
		}
	}
}

// seqValue parses seq: an integer in int's range, or null.
func (d *rowsDecoder) seqValue() error {
	c := d.next()
	if c == 'n' {
		return d.null()
	}
	start := d.pos
	if c == '-' {
		d.pos++
	}
	digits := d.pos
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
	switch {
	case d.pos == digits:
		return d.fail("seq as an integer")
	case d.buf[digits] == '0' && d.pos-digits > 1:
		d.pos = digits + 1
		return d.fail("',' or '}' after a leading 0")
	}
	n, err := strconv.ParseInt(string(d.buf[start:d.pos]), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("seq %s out of range", d.buf[start:d.pos])
	}
	d.seq = int(n)
	return nil // a fraction or exponent fails the caller's ',' or '}'
}

// rowsValue parses rows: an array of rows, or null.
func (d *rowsDecoder) rowsValue() error {
	if d.sawRows {
		return errors.New(`the "rows" key is given twice`)
	}
	d.sawRows = true
	switch d.next() {
	case 'n':
		return d.null()
	case '[':
		d.pos++
	default:
		return d.fail("rows as an array")
	}
	if d.next() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := d.appendRow(); err != nil {
			return err
		}
		d.nrows++
		switch d.next() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.fail("',' or ']' after a row")
		}
	}
}

// appendRow parses the next row, appending its cells to the columns. A
// row must hold exactly one cell per column.
func (d *rowsDecoder) appendRow() error {
	cols := d.rel.Columns
	switch d.next() {
	case '[':
		d.pos++
	case 'n':
		return d.widthError()
	default:
		return d.fail("a row array or null")
	}
	for j := 0; ; j++ {
		c := d.next()
		if j == len(cols) || c == ']' {
			return d.widthError()
		}
		switch c {
		case '"':
			b, err := d.str()
			if err != nil {
				return err
			}
			if len(b) == 0 {
				cols[j].AppendMissing()
			} else {
				cols[j].AppendBytes(b)
			}
		case 'n':
			if err := d.null(); err != nil {
				return err
			}
			cols[j].AppendMissing()
		default:
			return d.fail("a string or null cell")
		}
		switch d.next() {
		case ',':
			d.pos++
		case ']':
			if j+1 != len(cols) {
				return d.widthError()
			}
			d.pos++
			return nil
		default:
			return d.fail("',' or ']' after a cell")
		}
	}
}

// widthError rejects the row being parsed for its cell count.
func (d *rowsDecoder) widthError() error {
	return fmt.Errorf("row %d does not have %d values, one per attribute", d.nrows, len(d.rel.Columns))
}

// plainByte marks the string bytes that decode as themselves: printable
// ASCII other than the quote and backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str parses the string at pos and returns its decoded bytes: a slice of
// the body when it has no escapes and is ASCII, else d.scratch. Either is
// valid until the next call.
func (d *rowsDecoder) str() ([]byte, error) {
	start := d.pos + 1
	for i := start; i < len(d.buf); i++ {
		if c := d.buf[i]; !plainByte[c] {
			if c == '"' {
				d.pos = i + 1
				return d.buf[start:i], nil
			}
			return d.strSlow(start, i)
		}
	}
	d.pos = len(d.buf)
	return nil, d.fail("a closing '\"'")
}

// strSlow decodes a string from its first escape, control or non-ASCII
// byte at i, as encoding/json does: control bytes are invalid, \uXXXX
// escapes combine surrogate pairs and turn a lone surrogate into U+FFFD,
// and each byte of invalid UTF-8 becomes U+FFFD.
func (d *rowsDecoder) strSlow(start, i int) ([]byte, error) {
	out := append(d.scratch[:0], d.buf[start:i]...)
	defer func() { d.scratch = out[:0] }()
	for i < len(d.buf) {
		c := d.buf[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return out, nil
		case c < ' ':
			d.pos = i
			return nil, d.fail("a string byte (control characters must be escaped)")
		case c == '\\':
			if i+1 >= len(d.buf) {
				i++
				break
			}
			switch e := d.buf[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d.buf[i+2:])
				if r < 0 {
					d.pos = i
					return nil, d.fail(`\u and four hex digits`)
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r = utf16.DecodeRune(r, u4(d.buf[i:]))
					if r != unicode.ReplacementChar {
						i += 6 // a valid pair; a lone surrogate stays U+FFFD
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos = i + 1
				return nil, d.fail("an escape character")
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.buf[i:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, unicode.ReplacementChar)
			} else {
				out = append(out, d.buf[i:i+size]...)
			}
			i += size
		}
	}
	d.pos = len(d.buf)
	return nil, d.fail("a closing '\"'")
}

// u4 decodes a \uXXXX escape at the start of s, -1 if there is none.
func u4(s []byte) rune {
	if len(s) < 2 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	return hex4(s[2:])
}

// hex4 decodes four hex digits at the start of s, -1 if there are not.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
