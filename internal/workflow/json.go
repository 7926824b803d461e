package workflow

import (
	"encoding/json"
	"fmt"

	"provpriv/internal/jsonr"
)

// MarshalSpec serializes a spec as indented JSON.
func MarshalSpec(s *Spec) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// UnmarshalSpec parses and validates a spec from JSON.
func UnmarshalSpec(data []byte) (*Spec, error) {
	s, err := DecodeSpec(data)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeSpec reads a spec from its JSON encoding, without reflection and
// without validating it: UnmarshalSpec validates, and so does a repository
// registering the spec. It reads what encoding/json reads into a Spec, to the
// same value. A key matching no field is skipped; a key that repeats one of
// its object is read over what the earlier one left, as encoding/json reads
// it (an element of a slice over the one its backing array holds there, a
// pointer's fields over its pointee, a map's entries beside the earlier
// ones); a null leaves a string or a number as it was and makes a slice, a
// map or a pointer nil. FuzzDecodeSpec holds it to encoding/json.
func DecodeSpec(data []byte) (*Spec, error) {
	d := specReader{jsonr.New(data)}
	s := &Spec{}
	if err := d.Document(func() error { return d.spec(s) }); err != nil {
		return nil, fmt.Errorf("workflow: decode spec: %w", err)
	}
	return s, nil
}

// specReader reads a spec with jsonr's primitives.
type specReader struct{ jsonr.Decoder }

// The keys of each object, as its fields' json tags name them.
var (
	specFields     = []string{"id", "name", "root", "workflows"}
	workflowFields = []string{"id", "name", "modules", "edges"}
	moduleFields   = []string{"id", "name", "kind", "sub", "inputs", "outputs", "keywords"}
	edgeFields     = []string{"from", "to", "data"}
)

// fields reads an object into a struct, calling field with the name each
// key matches and skipping a key that matches none. A null leaves the
// struct as it is.
func (d *specReader) fields(names []string, field func(name string) error) error {
	if d.Null() {
		return nil
	}
	return d.Members(func(key []byte) error {
		if i := jsonr.Field(key, names); i >= 0 {
			return field(names[i])
		}
		return d.Skip()
	})
}

func (d *specReader) spec(s *Spec) error {
	return d.fields(specFields, func(name string) error {
		switch name {
		case "id":
			return d.text(&s.ID)
		case "name":
			return d.text(&s.Name)
		case "root":
			return d.text(&s.Root)
		}
		if d.Null() {
			s.Workflows = nil
			return nil
		}
		if s.Workflows == nil {
			s.Workflows = map[string]*Workflow{}
		}
		return d.Members(func(key []byte) error {
			id := string(key)
			var w *Workflow
			err := d.workflow(&w)
			s.Workflows[id] = w
			return err
		})
	})
}

func (d *specReader) workflow(pw **Workflow) error {
	if d.Null() {
		*pw = nil
		return nil
	}
	if *pw == nil {
		*pw = &Workflow{}
	}
	w := *pw
	return d.fields(workflowFields, func(name string) error {
		switch name {
		case "id":
			return d.text(&w.ID)
		case "name":
			return d.text(&w.Name)
		case "modules":
			return slice(d, &w.Modules, d.module)
		}
		return slice(d, &w.Edges, func(e *Edge) error {
			return d.fields(edgeFields, func(name string) error {
				switch name {
				case "from":
					return d.text(&e.From)
				case "to":
					return d.text(&e.To)
				}
				return slice(d, &e.Data, d.text)
			})
		})
	})
}

func (d *specReader) module(pm **Module) error {
	if d.Null() {
		*pm = nil
		return nil
	}
	if *pm == nil {
		*pm = &Module{}
	}
	m := *pm
	return d.fields(moduleFields, func(name string) error {
		switch name {
		case "id":
			return d.text(&m.ID)
		case "name":
			return d.text(&m.Name)
		case "kind":
			if d.Null() {
				return nil
			}
			k, err := d.Integer()
			m.Kind = Kind(k)
			return err
		case "sub":
			return d.text(&m.Sub)
		case "inputs":
			return slice(d, &m.Inputs, d.text)
		case "outputs":
			return slice(d, &m.Outputs, d.text)
		}
		return slice(d, &m.Keywords, d.text)
	})
}

// text reads a string into *s; a null leaves it.
func (d *specReader) text(s *string) error {
	if d.Null() {
		return nil
	}
	b, err := d.Chars()
	if err == nil {
		*s = string(b)
	}
	return err
}

// slice reads an array into *s, each element with elem: a null makes *s
// nil, an empty array an empty slice, and element i is read over the one
// *s's backing array holds at i while i is inside its capacity.
func slice[T any](d *specReader, s *[]T, elem func(*T) error) error {
	if d.Null() {
		*s = nil
		return nil
	}
	v := (*s)[:0]
	err := d.Array(func() error {
		if len(v) < cap(v) {
			v = v[:len(v)+1]
		} else {
			v = append(v, *new(T))
		}
		return elem(&v[len(v)-1])
	})
	if len(v) == 0 {
		v = []T{}
	}
	*s = v
	return err
}
