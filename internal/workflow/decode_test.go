package workflow_test

// The spec reader (DecodeSpec) held to encoding/json: it accepts exactly
// what encoding/json accepts into a Spec and reads it to the same value.
// External test package to seed with the workload generator.

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// seedSpecs returns the Fig. 1 spec and random specs, encoded as a
// repository stores them and indented.
func seedSpecs(t testing.TB) [][]byte {
	specs := []*workflow.Spec{workflow.DiseaseSusceptibility()}
	for seed := int64(1); seed <= 3; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{Seed: seed, Depth: 3, Fanout: 2, Chain: 3, SkipProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	var out [][]byte
	for _, s := range specs {
		compact, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := workflow.MarshalSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, compact, indented)
	}
	return out
}

// specOddities exercise what a stored spec never holds: keys unknown,
// case-folded and repeated (a repeated slice is read over the first, its
// pointers' fields over theirs, a repeated map beside it), nulls at every
// kind of field, numbers that are not ints, and malformed JSON.
var specOddities = []string{
	`{"ID":"s","NAME":"n","Root":"W","wOrKfLoWs":{"W":{"Id":"W","modules":[{"ſub":"x","KIND":1}]}}}`,
	`{"id":"s","extra":{"a":[1,-2.5e+3,true,false,null,"é",{"b":[]}]},"root":"W"}`,
	`{"id":"s","id":null,"name":"a","name":"b","workflows":null}`,
	`{"workflows":{"W":{"id":"W"}},"workflows":{"V":{"id":"V"},"W":null}}`,
	`{"workflows":{"W":{"modules":[{"id":"a","name":"x"},{"id":"b"}],"modules":[{"id":"c"}]}}}`,
	`{"workflows":{"W":{"modules":[{"id":"a"},{"id":"b"}],"modules":[{"id":"c"}],"modules":[null,{"name":"n"}]}}}`,
	`{"workflows":{"W":{"edges":[{"from":"a","data":["x","y"]}],"edges":[null,{"to":"b"}],"edges":[]}}}`,
	`{"workflows":{"W":{"modules":[{"inputs":["a","b"],"inputs":["c"],"inputs":["d",null]}]}}}`,
	`{"workflows":{"W":{"modules":[null,{"outputs":null,"keywords":[]}],"edges":null}}}`,
	`{"workflows":{"W":{"modules":[{"kind":-0},{"kind":null},{"kind":9223372036854775807}]}}}`,
	`{"workflows":{"W":{"modules":[{"kind":1.0}]}}}`,
	`{"workflows":{"W":{"modules":[{"kind":1e2}]}}}`,
	`{"workflows":{"W":{"modules":[{"kind":"1"}]}}}`,
	`{"workflows":{"W":{"modules":[{"kind":9223372036854775808}]}}}`,
	`{"workflows":{"W":{"modules":{}}}}`,
	`{"workflows":[]}`,
	`{"id":5}`,
	`{"x":01}`,
	`{"x":1.}`,
	`{"x":-}`,
	`{"x":1e}`,
	`{"x":[1,]}`,
	`{"x":tru}`,
	`{"x":"\q"}`,
	"{\"x\":\"a\x01\"}",
	"{\"id\":\"a\xffb\",\"name\":\"\\ud800\"}",
	`{"id":"s"} x`,
	`{"id":"s",}`,
	`null`,
	`[]`,
	` {} `,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
}

func FuzzDecodeSpec(f *testing.F) {
	for _, data := range seedSpecs(f) {
		f.Add(data)
	}
	for _, s := range specOddities {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := workflow.DecodeSpec(data)
		var want workflow.Spec
		wantErr := json.Unmarshal(data, &want)
		switch {
		case err == nil && wantErr != nil:
			t.Fatalf("the reader accepts %q, which encoding/json refuses: %v", data, wantErr)
		case err != nil && wantErr == nil:
			t.Fatalf("the reader refuses %q (%v), which encoding/json accepts", data, err)
		case err == nil && !reflect.DeepEqual(*got, want):
			t.Fatalf("%q reads as\n%+v\nencoding/json reads\n%+v", data, got, want)
		}
	})
}

// TestUnmarshalSpecValidates: UnmarshalSpec is DecodeSpec, then Validate,
// which refuses, with an error and not a panic, an edge to a missing module
// and a null where a workflow or a module belongs.
func TestUnmarshalSpecValidates(t *testing.T) {
	for _, c := range []struct{ doc, want string }{
		{`{"id":"s","root":"W","workflows":{"W":{"id":"W","modules":[{"id":"a","kind":0}],"edges":[{"from":"a","to":"b","data":["x"]}]}}}`, "missing module"},
		{`{"id":"s","root":"W","workflows":{"W":{"id":"W"},"X":null}}`, `workflow "X" is null`},
		{`{"id":"s","root":"W","workflows":{"W":{"id":"W","modules":[{"id":"a"},null]}}}`, "null module"},
	} {
		if _, err := workflow.DecodeSpec([]byte(c.doc)); err != nil {
			t.Fatalf("DecodeSpec(%s): %v", c.doc, err)
		}
		if _, err := workflow.UnmarshalSpec([]byte(c.doc)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("UnmarshalSpec(%s) = %v, want Validate's %q error", c.doc, err, c.want)
		}
	}
}

// BenchmarkDecodeSpec reads a random specification, encoded as a repository
// stores it, with the reader and with encoding/json.
func BenchmarkDecodeSpec(b *testing.B) {
	s, err := workload.RandomSpec(workload.SpecConfig{Seed: 1, Depth: 3, Fanout: 3, Chain: 4, SkipProb: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reader", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := workflow.DecodeSpec(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			var s workflow.Spec
			if err := json.Unmarshal(data, &s); err != nil {
				b.Fatal(err)
			}
		}
	})
}
