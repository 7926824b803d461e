package exec_test

// The hand-written reader (DecodeExecution, the value record behind
// UnmarshalValues) held to encoding/json: whatever it accepts, encoding/json
// accepts and reads to the same value; whatever it refuses, encoding/json
// refuses too, or the input holds one of the things the reader is stricter
// about — an unknown key, a key repeating one of its object, a null node or
// item. External test package to seed with the workload generator.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// decodeReference is what POST /api/v1/executions decoded with before the
// reader: encoding/json, unknown fields refused, nothing after the value.
func decodeReference(data []byte) (*exec.Execution, error) {
	var e exec.Execution
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return nil, err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, errors.New("data after the value")
	}
	return &e, nil
}

// schema names each object's keys and what each holds: "" for a string,
// number, boolean or array of them, else the kind below.
var schema = map[string]map[string]string{
	"execution": {"id": "", "spec": "", "nodes": "nodes", "edges": "edges", "items": "items"},
	"node":      {"id": "", "module": "", "proc": "", "kind": "", "frames": "frames"},
	"frame":     {"proc": "", "module": "", "sub": ""},
	"edge":      {"from": "", "to": "", "items": ""},
	"item":      {"id": "", "attr": "", "value": "", "producer": "", "redacted": ""},
	"record":    {"like": "", "values": "", "redacted": ""},
}

// elements are the kinds of the arrays of objects; "items" is the map of
// item id to item.
var elements = map[string]string{"nodes": "node", "edges": "edge", "frames": "frame"}

// stricter reports whether data, a document of the given kind that
// encoding/json accepts, holds a key no field matches, a key matching the
// same field as an earlier key of its object (or, in the item map, the same
// id), or a null node or item. It walks encoding/json's own tokens, which
// keep every key as written.
func stricter(t *testing.T, data []byte, kind string) bool {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	token := func() json.Token {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("encoding/json accepted %q, then could not tokenize it: %v", data, err)
		}
		return tok
	}
	var walk func(kind string) bool
	walk = func(kind string) bool {
		found := false
		switch token() {
		case nil:
			return kind == "node" || kind == "item"
		case json.Delim('['):
			for dec.More() {
				found = walk(elements[kind]) || found
			}
		case json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				key := token().(string)
				name, child := key, "item"
				if kind != "items" {
					name, child = "", ""
					for n, c := range schema[kind] {
						if strings.EqualFold(key, n) {
							name, child = n, c
						}
					}
				}
				found = name == "" || seen[name] || found
				seen[name] = true
				found = walk(child) || found
			}
		default:
			return false
		}
		token() // the closing delimiter
		return found
	}
	return walk(kind)
}

// seedRuns returns the Fig. 1 run and runs of random specifications, some
// values rewritten to need escapes.
func seedRuns(t testing.TB) []*exec.Execution {
	fig1 := workflow.DiseaseSusceptibility()
	e, err := exec.NewRunner(fig1, nil).Run("E1", map[string]exec.Value{
		"snps": "rs123,rs456", "ethnicity": "eth1", "lifestyle": "active", "family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := []*exec.Execution{e}
	for seed := int64(1); seed <= 3; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{Seed: seed, Depth: 3, Fanout: 2, Chain: 3, SkipProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("R%d", seed), workload.RandomInputs(s, seed))
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range e.ItemIDs() {
			switch it := e.Items[id]; i % 5 {
			case 1:
				it.Value += "\"\\\n\t<é> \U0001F600"
			case 2:
				it.Redacted = true
			case 3:
				it.Value = ""
			}
		}
		runs = append(runs, e)
	}
	return runs
}

// oddities are documents that exercise the corners of the two encodings:
// escaped and case-folded keys, surrogates lone and paired, invalid UTF-8,
// control bytes, nulls, duplicates and numbers that are not ints.
var oddities = []string{
	`{"id":"E","SPEC":"s","Nodes":[{"Id":"n","KIND":2,"fRaMeS":[{"pRoc":"p","MODULE":"m","ſub":"w"}]}],"edges":[],"ITEMS":{"d0":{"id":"d0","Attr":"a","VALUE":"v","producer":"n","Redacted":true}}}`,
	`{"id":"E","nodes":[{"Kind":3,"frames":[null,{}]}],"edges":[null,{"items":[null,"d0"]}]}`,
	`{"ıd":"E"}`,
	`{"id":"𝄞\ud800A\udc00\ud800","spec":"\ud800\\u","items":{"\ud800":{"id":"�"}}}`,
	"{\"id\":\"a\xffb\xc3\",\"spec\":\"\xed\xa0\x80\",\"nodes\":[{\"id\":\"\xf0\x9f\x98\"}]}",
	"{\"id\":\"a\x01\"}",
	"{\"id\":\"\t\"}",
	`{"id":"\"\\\/\b\f\n\r\té "}`,
	`{"id":"\x"}`,
	`{"id":"\u12"}`,
	`{"nodes":[null]}`,
	`{"items":{"d0":null}}`,
	`{"id":"a","ID":"b"}`,
	`{"items":{"d0":{},"d0":{}}}`,
	`{"nodes":[{"kind":-0}],"edges":null,"items":null}`,
	`{"nodes":[{"kind":1.0}]}`,
	`{"nodes":[{"kind":1e2}]}`,
	`{"nodes":[{"kind":01}]}`,
	`{"nodes":[{"kind":9223372036854775807},{"kind":-9223372036854775808}]}`,
	`{"nodes":[{"kind":9223372036854775808}]}`,
	`{"nodes":[{"kind":"1"}]}`,
	`{"items":{"d0":{"redacted":null,"value":null}}}`,
	`{"items":{"d0":{"redacted":"true"}}}`,
	`{"bogus":true}`,
	" \t\r\n{}\n ",
	`null`,
	`[]`,
	`{} x`,
	`{}{}`,
	`{"id":"E",}`,
	`{"id" "E"}`,
	`{"id":"E"`,
	`{"id":nul}`,
	`{"id":"E","spec":"s","nodes":[],"edges":[],"items":{}}`,
	`{"like":"E","values":["\ud800",null,"a\u0000b"],"redacted":[0,-0,null]}`,
	"{\"like\":\"E\",\"values\":[\"\xff\",\"\x7f\"]}",
	`{"LIKE":"E","Values":[],"REDACTED":null}`,
	`{"like":"a","like":"b"}`,
	`{"like":"E","extra":1}`,
	`{"like":"E","redacted":[1.5]}`,
	`{"like":"E","values":[1]}`,
	`{"like":"E","values":["a""b"]}`,
}

func FuzzDecodeExecution(f *testing.F) {
	for _, e := range seedRuns(f) {
		indented, err := exec.MarshalExecution(e)
		if err != nil {
			f.Fatal(err)
		}
		compact, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(indented)
		f.Add(compact)
	}
	for _, s := range oddities {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := exec.DecodeExecution(data)
		want, wantErr := decodeReference(data)
		switch {
		case err == nil && wantErr != nil:
			t.Fatalf("the reader accepts %q, which encoding/json refuses: %v", data, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%q reads as\n%+v\nencoding/json reads\n%+v", data, got, want)
		case err != nil && wantErr == nil && !stricter(t, data, "execution"):
			t.Fatalf("the reader refuses %q (%v), which encoding/json accepts and which holds no duplicate key or null node or item", data, err)
		}
	})
}

func FuzzUnmarshalValues(f *testing.F) {
	for _, e := range seedRuns(f) {
		data, err := exec.NewShapes().Intern(e).MarshalValues()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range oddities {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := exec.DecodeValueRecord(data)
		var want exec.ValueRecord
		wantErr := json.Unmarshal(data, &want)
		switch {
		case err == nil && wantErr != nil:
			t.Fatalf("the reader accepts %q, which encoding/json refuses: %v", data, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%q reads as\n%+v\nencoding/json reads\n%+v", data, got, want)
		case err != nil && wantErr == nil && !stricter(t, data, "record"):
			t.Fatalf("the reader refuses %q (%v), which encoding/json accepts and which holds no unknown or duplicate key", data, err)
		}
	})
}

// TestDecodeRefusesNullNodesAndItems: a null node or item is refused by the
// reader and, for an execution built in process, by Validate — never left
// for a reader of the execution to dereference.
func TestDecodeRefusesNullNodesAndItems(t *testing.T) {
	for _, body := range []string{
		`{"id":"E","spec":"s","nodes":[null],"edges":[],"items":{}}`,
		`{"id":"E","spec":"s","nodes":[],"edges":[],"items":{"d0":null}}`,
	} {
		if e, err := exec.DecodeExecution([]byte(body)); err == nil {
			t.Fatalf("%s decoded as %+v", body, e)
		}
	}
	e := seedRuns(t)[0]
	withNilNode := *e
	withNilNode.Nodes = append([]*exec.Node{nil}, e.Nodes...)
	withNilItem := *e
	withNilItem.Items = map[string]*exec.DataItem{"d-nil": nil}
	for id, it := range e.Items {
		withNilItem.Items[id] = it
	}
	for name, bad := range map[string]*exec.Execution{"nil node": &withNilNode, "nil item": &withNilItem} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate accepts an execution with a %s", name)
		}
	}
}

// BenchmarkDecodeExecution reads a run of a random specification (its
// POST /api/v1/executions body) with the reader and with encoding/json.
func BenchmarkDecodeExecution(b *testing.B) {
	_, e := randomRun(b, 1)
	data, err := exec.MarshalExecution(e)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reader", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := exec.DecodeExecution(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := decodeReference(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUnmarshalValues reads one value record into an execution over
// its shape, with the reader (UnmarshalValues) and with encoding/json.
func BenchmarkUnmarshalValues(b *testing.B) {
	_, e := randomRun(b, 1)
	shapes := exec.NewShapes()
	stored := map[string]*exec.Stored{e.ID: shapes.Intern(e)}
	shape := stored[e.ID].Shape()
	data, err := stored[e.ID].MarshalValues()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reader", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := shapes.UnmarshalValues("B", data, stored); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			var rec exec.ValueRecord
			if err := json.Unmarshal(data, &rec); err != nil {
				b.Fatal(err)
			}
			if _, err := shape.WithValues("B", rec.Values, rec.Redacted); err != nil {
				b.Fatal(err)
			}
		}
	})
}
