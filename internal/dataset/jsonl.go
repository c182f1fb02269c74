package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// ReadJSONL parses a relation from JSON Lines: one flat JSON object per
// line. The schema is the union of keys seen across all records, in first-
// appearance order (ties broken alphabetically per record); missing keys
// and JSON nulls become NULL cells; numbers, bools and strings are
// stringified. Nested values are rejected.
func ReadJSONL(name string, r io.Reader) (*Relation, error) {
	type record map[string]interface{}
	var records []record
	var keys []string
	seen := map[string]bool{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("dataset: jsonl line %d: %w", line, err)
		}
		newKeys := make([]string, 0, len(rec))
		for k := range rec {
			if !seen[k] {
				seen[k] = true
				newKeys = append(newKeys, k)
			}
		}
		sort.Strings(newKeys)
		keys = append(keys, newKeys...)
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading jsonl: %w", err)
	}

	rel := New(name, keys...)
	row := make([]string, len(keys))
	for ln, rec := range records {
		for i, k := range keys {
			v, ok := rec[k]
			if !ok || v == nil {
				row[i] = ""
				continue
			}
			switch t := v.(type) {
			case string:
				row[i] = t
			case float64:
				row[i] = trimFloat(t)
			case bool:
				if t {
					row[i] = "true"
				} else {
					row[i] = "false"
				}
			default:
				return nil, fmt.Errorf("dataset: jsonl record %d: nested value for key %q", ln+1, k)
			}
		}
		if err := rel.AppendRow(row); err != nil {
			return nil, err
		}
	}
	// Re-infer types: numeric-looking columns become Numeric.
	for _, col := range rel.Columns {
		numeric, vals := true, 0
		for i := 0; i < col.Len() && vals < inferenceSample; i++ {
			v, ok := col.Value(i)
			if !ok {
				continue
			}
			vals++
			if _, err := json.Number(v).Float64(); err != nil {
				numeric = false
				break
			}
		}
		if numeric && vals > 0 {
			col.Type = Numeric
		}
	}
	return rel, nil
}

// LoadJSONL reads a relation from a JSON Lines file.
func LoadJSONL(path string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(path, f)
}

// trimFloat renders a float64 without a trailing ".0" for integral values.
// (fdx:numeric-kernel: the integral-value test must be exact — rounding a
// nearly-integral float would change the rendered value.)
func trimFloat(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}
