package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"fdx"
)

// The /rows wire decode: decodeRows against its encoding/json oracle
// (parity on every body, identical relations on accepted ones), the body
// cap, and rate tokens spent only on valid batches.

// rowsRequest is the /rows body as encoding/json sees it: the parity
// oracle's target type, and what the tests marshal to send batches.
type rowsRequest struct {
	Seq  int        `json:"seq"`
	Rows [][]string `json:"rows"`
}

// batchRelation is the relation a batch of wire rows stands for: one
// AppendRow per row, so empty strings are Missing.
func batchRelation(names []string, rows [][]string) (*fdx.Relation, error) {
	rel := fdx.NewRelation("wire", names...)
	for _, row := range rows {
		if err := rel.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// oracleRows is decodeRows's reference: encoding/json's Decoder with
// DisallowUnknownFields into rowsRequest, the "rows" key given at most
// once, the batch checks (seq >= 1, a row at least, every row as wide as
// the schema), and batchRelation.
func oracleRows(body []byte, names []string) (int, *fdx.Relation, bool) {
	var req rowsRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || rowsKeys(body) > 1 || req.Seq < 1 || len(req.Rows) == 0 {
		return 0, nil, false
	}
	rel, err := batchRelation(names, req.Rows)
	if err != nil {
		return 0, nil, false
	}
	return req.Seq, rel, true
}

// rowsKeys counts the keys of the object body starts with that name the
// rows field, matched as encoding/json matches them. It stops at the first
// syntax error, which Decode reports anyway.
func rowsKeys(body []byte) int {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return n
		}
		if key, ok := tok.(string); ok && strings.EqualFold(key, "rows") {
			n++
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return n
		}
	}
	return n
}

// relationDiff describes the first difference between got and want in
// name, shape, column types, codes, dictionary or numeric values, or
// returns "".
func relationDiff(got, want *fdx.Relation) string {
	if got.Name != want.Name || !slices.Equal(got.AttrNames(), want.AttrNames()) || got.NumRows() != want.NumRows() {
		return fmt.Sprintf("relation %q %v x %d rows, want %q %v x %d rows",
			got.Name, got.AttrNames(), got.NumRows(), want.Name, want.AttrNames(), want.NumRows())
	}
	for j, g := range got.Columns {
		w := want.Columns[j]
		switch {
		case g.Type != w.Type:
			return fmt.Sprintf("column %s type %v, want %v", g.Name, g.Type, w.Type)
		case g.Cardinality() != w.Cardinality():
			return fmt.Sprintf("column %s has %d values, want %d", g.Name, g.Cardinality(), w.Cardinality())
		case !slices.Equal(g.Codes(), w.Codes()):
			return fmt.Sprintf("column %s codes %v, want %v", g.Name, g.Codes(), w.Codes())
		}
		for code := int32(0); int(code) < g.Cardinality(); code++ {
			if g.DictValue(code) != w.DictValue(code) {
				return fmt.Sprintf("column %s code %d is %q, want %q", g.Name, code, g.DictValue(code), w.DictValue(code))
			}
		}
		for i := 0; i < g.Len(); i++ {
			if math.Float64bits(g.Float(i)) != math.Float64bits(w.Float(i)) {
				return fmt.Sprintf("column %s row %d number %v, want %v", g.Name, i, g.Float(i), w.Float(i))
			}
		}
	}
	return ""
}

// checkParity fails t unless decodeRows and the oracle agree on body:
// both reject it, or both accept it with the same seq and relation.
func checkParity(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	seq, rel, herr := decodeRows(body, testAttrs)
	wantSeq, want, ok := oracleRows(body, testAttrs)
	switch {
	case ok && herr != nil:
		t.Fatalf("body %q: rejected (%s), encoding/json accepts it", body, herr.Message)
	case !ok && herr == nil:
		t.Fatalf("body %q: accepted, encoding/json rejects it", body)
	case !ok:
		if herr.status != http.StatusBadRequest || herr.Code != CodeBadInput {
			t.Fatalf("body %q: rejected with %d %s, want 400 %s", body, herr.status, herr.Code, CodeBadInput)
		}
		return false
	case seq != wantSeq:
		t.Fatalf("body %q: seq %d, want %d", body, seq, wantSeq)
	}
	if d := relationDiff(rel, want); d != "" {
		t.Fatalf("body %q: %s", body, d)
	}
	return true
}

// parityBodies are the wire edge cases, with whether encoding/json (and so
// decodeRows) accepts each into a batch over testAttrs.
var parityBodies = []struct {
	body   string
	accept bool
}{
	{`{"seq":1,"rows":[["a","b","c"]]}`, true},
	{" \t\r\n{ \"seq\" : 1 ,\n\"rows\" : [ [ \"a\" , \"b\" , \"c\" ] ] } ", true},
	{`{"rows":[["a","b","c"],["a","x","c"]],"seq":2}`, true},
	// Keys match case-insensitively (with Unicode folding) after unescaping.
	{`{"Seq":1,"ROWS":[["a","b","c"]]}`, true},
	{`{"ſeq":1,"rowſ":[["a","b","c"]]}`, true},
	{`{"\u0073eq":1,"r\u006fws":[["a","b","c"]]}`, true},
	{`{"seq\u0000":1,"rows":[["a","b","c"]]}`, false},
	{"{\"seq\xff\":1,\"rows\":[[\"a\",\"b\",\"c\"]]}", false},
	{`{"seq":1,"rows":[["a","b","c"]],"extra":1}`, false},
	{`{"sequence":1,"rows":[["a","b","c"]]}`, false},
	// Duplicate keys: seq's last value wins, and null leaves it as it was;
	// a repeated rows key, however spelled or valued, is rejected.
	{`{"seq":1,"seq":2,"rows":[["a","b","c"]]}`, true},
	{`{"seq":3,"seq":null,"rows":[["a","b","c"]]}`, true},
	{`{"seq":null,"rows":[["a","b","c"]]}`, false},
	{`{"seq":1,"rows":[["a","b","c"]],"rows":[["x","y","z"],["a","b","c"]]}`, false},
	{`{"seq":1,"rows":[["a","b","c"],["d","e","f"]],"rows":[["x",null,"z"]]}`, false},
	{`{"seq":1,"rows":[["a","b","c"],["d","e","f"]],"rows":[["x","y","z"]],"rows":[[null,null,null],[null,"q",null]]}`, false},
	{`{"seq":1,"rows":[["a"]],"rows":[["x","y","z"]]}`, false},
	{`{"seq":1,"rows":[["a","b","c"]],"ROWS":[["a","b","c"]]}`, false},
	{`{"seq":1,"rows":[["a","b","c"]],"ro\u0077s":null}`, false},
	{`{"seq":1,"rows":null,"rows":[[null,null,"z"]]}`, false},
	{`{"seq":1,"rows":[],"rows":[[null,"b",null]]}`, false},
	{`{"seq":1,"rows":[["a","b","c"]],"rows":[null],"rows":[[null,null,"z"]]}`, false},
	{`{"seq":1,"rows":[["a","b","c"]],"rows":[[]],"rows":[[null,null,"z"]]}`, false},
	{`{"seq":1,"rows":[["a","b","c"]],"rows":[["x","y"]]}`, false},
	{`{"seq":1,"rows":[["a","b","c"]],"rows":null}`, false},
	// null for rows, a row and a cell; a null cell is Missing, like "".
	{`{"seq":1,"rows":null}`, false},
	{`{"seq":1,"rows":[]}`, false},
	{`{"seq":1,"rows":[null]}`, false},
	{`{"seq":1,"rows":[[]]}`, false},
	{`{"seq":1}`, false},
	{`{"seq":1,"rows":[["a",null,""],[null,"",""]]}`, true},
	// seq must decode as an int.
	{`{"seq":0,"rows":[["a","b","c"]]}`, false},
	{`{"seq":-0,"rows":[["a","b","c"]]}`, false},
	{`{"seq":-3,"rows":[["a","b","c"]]}`, false},
	{`{"seq":9223372036854775807,"rows":[["a","b","c"]]}`, true},
	{`{"seq":9223372036854775808,"rows":[["a","b","c"]]}`, false},
	{`{"seq":1.0,"rows":[["a","b","c"]]}`, false},
	{`{"seq":1e0,"rows":[["a","b","c"]]}`, false},
	{`{"seq":01,"rows":[["a","b","c"]]}`, false},
	{`{"seq":-,"rows":[["a","b","c"]]}`, false},
	{`{"seq":"1","rows":[["a","b","c"]]}`, false},
	{`{"seq":true,"rows":[["a","b","c"]]}`, false},
	{`{"seq":[1],"rows":[["a","b","c"]]}`, false},
	{`{"seq":{},"rows":[["a","b","c"]]}`, false},
	// Cells must be strings; rows arrays; the body an object.
	{`{"seq":1,"rows":[["a","b",1]]}`, false},
	{`{"seq":1,"rows":[["a","b",true]]}`, false},
	{`{"seq":1,"rows":[["a","b",["c"]]]}`, false},
	{`{"seq":1,"rows":[["a","b",{}]]}`, false},
	{`{"seq":1,"rows":["abc"]}`, false},
	{`{"seq":1,"rows":"abc"}`, false},
	{`{"seq":1,"rows":[["a","b"]]}`, false},
	{`{"seq":1,"rows":[["a","b","c","d"]]}`, false},
	{`{"seq":1,"rows":[["a","b","c"],["a","b"]]}`, false},
	{``, false},
	{` `, false},
	{`null`, false},
	{`{}`, false},
	{`[]`, false},
	{`"x"`, false},
	{`1`, false},
	{"\xef\xbb\xbf{\"seq\":1,\"rows\":[[\"a\",\"b\",\"c\"]]}", false},
	// Escapes, UTF-8 and control characters.
	{`{"seq":1,"rows":[["\"q\\\/","\b\f\n\r\t","é中"]]}`, true},
	{`{"seq":1,"rows":[["😀","\ud83d","\ude00x"]]}`, true},
	{`{"seq":1,"rows":[["\ud83dA","\ud83d😀","\u0000"]]}`, true},
	{"{\"seq\":1,\"rows\":[[\"\xff\",\"a\xc3\",\"\xed\xa0\x80\"]]}", true},
	{"{\"seq\":1,\"rows\":[[\"é\",\"\xef\xbf\xbd\",\"\xf0\x9f\x98\x80\"]]}", true},
	{"{\"seq\":1,\"rows\":[[\"a\tb\",\"b\",\"c\"]]}", false},
	{"{\"seq\":1,\"rows\":[[\"a\nb\",\"b\",\"c\"]]}", false},
	{"{\"seq\":1,\"rows\":[[\"\x7f\",\"b\",\"c\"]]}", true},
	{`{"seq":1,"rows":[["\x","b","c"]]}`, false},
	{`{"seq":1,"rows":[["\'","b","c"]]}`, false},
	{`{"seq":1,"rows":[["\u12","b","c"]]}`, false},
	{`{"seq":1,"rows":[["\u12G4","b","c"]]}`, false},
	{`{"seq":1,"rows":[["\ud83d\u12G4","b","c"]]}`, false},
	{`{"seq":1,"rows":[["a","b","c\`, false},
	{`{"seq":1,"rows":[["a","b","c`, false},
	// Numeric-looking cells keep ParseFloat's values.
	{`{"seq":1,"rows":[["1.5","-0","inf"],["0x1p-2","NaN","1e400"],["1_0","+.5"," 1"]]}`, true},
	// Syntax.
	{`{"seq":1,"rows":[["a","b","c"]]} trailing {"garbage"`, true},
	{`{"seq":1,"rows":[["a","b","c"]]}}`, true},
	{`{"seq":1,"rows":[["a","b","c"]]`, false},
	{`{"seq":1,}`, false},
	{`{"seq":1,"rows":[["a","b","c"],]}`, false},
	{`{"seq":1,"rows":[["a","b","c",]]}`, false},
	{`{"seq" 1,"rows":[["a","b","c"]]}`, false},
	{`{"seq":1 "rows":[["a","b","c"]]}`, false},
	{`{"seq":1,"rows":[["a" "b","c"]]}`, false},
	{`{"seq":1,"rows":[["a","b",nul]]}`, false},
	{`{"seq":1,"rows":[["a","b",nulls]]}`, false},
	{`{seq:1,"rows":[["a","b","c"]]}`, false},
	{`{'seq':1,"rows":[["a","b","c"]]}`, false},
	{`{"seq":1,"rows":[[[["a"]]]]}`, false},
}

func TestDecodeRowsParity(t *testing.T) {
	for _, c := range parityBodies {
		if got := checkParity(t, []byte(c.body)); got != c.accept {
			t.Errorf("body %q: accepted %v, want %v", c.body, got, c.accept)
		}
	}
}

// wireRows are rows whose cells need every kind of JSON escape, carry
// non-ASCII and numeric values and are sometimes empty, over testAttrs
// with b functionally determined by a.
func wireRows(n, offset int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		v := offset + i
		b := fmt.Sprintf("é\\%d <&>", (v%5)*2)
		if v%11 == 0 {
			b = ""
		}
		rows[i] = []string{fmt.Sprintf("\"a\"\t%d", v%5), b, fmt.Sprintf("%d.5", v%3)}
	}
	return rows
}

// TestDecodeRowsIdenticalRelation pins what the transform sees: decodeRows
// builds the relation AppendRow builds from the same rows, sharing no
// bytes with the body, and a session fed over HTTP serves B bit-identical
// to an in-process accumulator.
func TestDecodeRowsIdenticalRelation(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "s1", "acme")
	acc := fdx.NewAccumulator(testAttrs, fdx.Options{})
	for seq := 1; seq <= 4; seq++ {
		rows := wireRows(64, seq*64)
		body, err := json.Marshal(rowsRequest{Seq: seq, Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		_, got, herr := decodeRows(body, testAttrs)
		if herr != nil {
			t.Fatalf("batch %d rejected: %s", seq, herr.Message)
		}
		for i := range body {
			body[i] = 'x' // the relation must not alias the (pooled) body
		}
		want, err := batchRelation(testAttrs, rows)
		if err != nil {
			t.Fatal(err)
		}
		if d := relationDiff(got, want); d != "" {
			t.Fatalf("batch %d: %s", seq, d)
		}
		if err := acc.Add(want); err != nil {
			t.Fatal(err)
		}
		rec, reply := do(t, sv, "POST", "/v1/sessions/s1/rows", "acme", rowsRequest{Seq: seq, Rows: rows})
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest %d: status %d body %v", seq, rec.Code, reply)
		}
	}
	res, err := acc.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if got := discoverB(t, sv, "s1", "acme"); !reflect.DeepEqual(got, res.B) {
		t.Error("served B differs from the in-process accumulator's")
	}
}

func FuzzRowsBody(f *testing.F) {
	for _, c := range parityBodies {
		f.Add([]byte(c.body))
	}
	for _, req := range []rowsRequest{
		{Seq: 1, Rows: genRows(6, 0)},
		{Seq: 2, Rows: genRows(4, 40)},
		{Seq: 1, Rows: [][]string{{"x"}, {"y"}}},
		{Seq: 3, Rows: wireRows(4, 0)},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParity(t, body)
	})
}

// repeatReader streams an endless run of one byte.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestServeBodyCap: every endpoint that reads a body answers 413 bad_input
// to one a byte past maxBodyBytes, streamed so nothing near the cap is
// ever held in memory; and a read that runs past the cap maps to the same
// 413.
func TestServeBodyCap(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "s1", "acme")
	for _, path := range []string{"/v1/sessions", "/v1/sessions/s1/rows", "/v1/sessions/s1/shards?seq=1"} {
		req := httptest.NewRequest("POST", path, io.LimitReader(repeatReader(' '), maxBodyBytes+1))
		req.ContentLength = maxBodyBytes + 1
		req.Header.Set("X-Fdx-Tenant", "acme")
		rec := httptest.NewRecorder()
		sv.Handler().ServeHTTP(rec, req)
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("POST %s: undecodable reply %q", path, rec.Body.Bytes())
		}
		if rec.Code != http.StatusRequestEntityTooLarge || errCode(t, body) != CodeBadInput {
			t.Errorf("POST %s past the cap: status %d body %v, want 413 %s", path, rec.Code, body, CodeBadInput)
		}
	}
	_, err := io.ReadAll(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader("xx")), 1))
	if herr := bodyError("reading", err); herr.status != http.StatusRequestEntityTooLarge || herr.Code != CodeBadInput {
		t.Errorf("read past the cap maps to %d %s, want 413 %s", herr.status, herr.Code, CodeBadInput)
	}
}

// TestServeDeclaredLengthIsNotTrusted: a /rows request that declares a
// body of maxBodyBytes, sends a few bytes and then stalls until the read
// deadline cuts it costs memory for what it sent, not for what it
// declared, so idle connections cannot pin 64 MiB each.
func TestServeDeclaredLengthIsNotTrusted(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "s1", "acme")
	req := httptest.NewRequest("POST", "/v1/sessions/s1/rows",
		io.MultiReader(strings.NewReader(`{"seq":1,"rows":[`), iotest.ErrReader(os.ErrDeadlineExceeded)))
	req.ContentLength = maxBodyBytes
	req.Header.Set("X-Fdx-Tenant", "acme")
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sv.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("stalled body: status %d, want 400", rec.Code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > maxBodyBytes/4 {
		t.Errorf("a stalled request declaring %d bytes allocated %d bytes", maxBodyBytes, got)
	}
}

// TestRowsHintPresizesColumns pins the column presize: a batch's codes are
// allocated once, at the size rowsHint reads off the body, and the hint
// reads at most maxPooledBody bytes, so a body of brackets presizes no
// more than that.
func TestRowsHintPresizesColumns(t *testing.T) {
	const n = 600
	body, err := json.Marshal(rowsRequest{Seq: 1, Rows: genRows(n, 0)})
	if err != nil {
		t.Fatal(err)
	}
	hint := rowsHint(body, len(testAttrs))
	if hint < n {
		t.Fatalf("hint %d for a batch of %d rows", hint, n)
	}
	_, rel, herr := decodeRows(body, testAttrs)
	if herr != nil {
		t.Fatal(herr.Message)
	}
	want := cap(slices.Grow([]int32(nil), hint))
	for j, c := range rel.Columns {
		if got := cap(c.Codes()); got != want {
			t.Errorf("column %d: codes cap %d, want %d from one presize of %d", j, got, want, hint)
		}
	}
	brackets := bytes.Repeat([]byte{'['}, 2*maxPooledBody)
	if got, limit := rowsHint(brackets, len(testAttrs)), maxPooledBody/(3*len(testAttrs)+2)+1; got > limit {
		t.Errorf("a %d-byte body of brackets hints %d rows, want at most %d", len(brackets), got, limit)
	}
}

// TestServeMalformedBatchSpendsNoRows: a batch rejected as bad input does
// not drain the tenant's ingest bucket, so a valid batch of the full
// bucket size right after it is still admitted.
func TestServeMalformedBatchSpendsNoRows(t *testing.T) {
	const bucket = 50
	sv := newServer(t, func(c *Config) { c.Quotas.RowsPerSecond = bucket })
	createSession(t, sv, "s1", "acme")
	bad := genRows(bucket, 0)
	bad[bucket-1] = bad[bucket-1][:2]
	rec, body := do(t, sv, "POST", "/v1/sessions/s1/rows", "acme", rowsRequest{Seq: 1, Rows: bad})
	if rec.Code != http.StatusBadRequest || errCode(t, body) != CodeBadInput {
		t.Fatalf("arity-error batch: status %d body %v, want 400 %s", rec.Code, body, CodeBadInput)
	}
	ingest(t, sv, "s1", "acme", 1, bucket, 0)
}
