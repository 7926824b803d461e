package exec

import (
	"fmt"
	"sync"

	"provpriv/internal/jsonr"
)

// An execution has two encodings: the full one (MarshalExecution), which
// POST /api/v1/executions, a bulk item and a RecExec record carry, and the
// value record (MarshalValues). Both are read here, in one pass over the
// bytes and without reflection, into the same values encoding/json would
// produce: strings unquoted as it unquotes them (escapes, surrogate pairs,
// U+FFFD for each invalid UTF-8 byte), keys matched to fields as it matches
// them (exactly, else under Unicode case folding, which is bytes.EqualFold),
// null leaving a field, and an array element, at its zero value, and an
// empty array read as an empty, non-nil slice. It refuses what the wire
// refuses: malformed JSON, a value of the wrong type, an unknown key and
// data after the value. It is stricter than encoding/json in two ways only:
// a key that repeats one of its object is refused, not overwritten, and so
// is a null where a node or an item belongs, which encoding/json would
// store as a nil pointer for every later reader to trip over.

// DecodeExecution reads an execution from its JSON encoding. It does not
// validate it: UnmarshalExecution does, and AddExecution does for what it
// stores.
func DecodeExecution(data []byte) (*Execution, error) {
	d := decoder{jsonr.New(data)}
	e := &Execution{}
	if err := d.Document(func() error { return d.execution(e) }); err != nil {
		return nil, fmt.Errorf("exec: decode execution: %w", err)
	}
	return e, nil
}

// valueScratch is the memory value records are read through, reused from one
// record to the next: the vector, the values' unquoted bytes and where each
// value ends in them. UnmarshalValues takes one from valueScratches for a
// record, so a loaded table keeps none of it.
type valueScratch struct {
	values []Value
	bytes  []byte
	ends   []int
}

var valueScratches = sync.Pool{New: func() any { return new(valueScratch) }}

// decodeValueRecord reads a value record (MarshalValues) through s. The
// values' bytes are gathered in s and made one string, once, and each value
// is a substring of it: a record costs one allocation for its values, which
// holds their bytes and nothing of the record around them. The vector is
// s's, valid until the next record.
func decodeValueRecord(data []byte, s *valueScratch) (valueRecord, error) {
	d := decoder{jsonr.New(data)}
	var rec valueRecord
	err := d.Document(func() error {
		if d.Null() {
			return nil
		}
		return d.Object(recordFields, func(name string) (err error) {
			switch name {
			case "like":
				rec.Like, err = d.Text()
			case "values":
				if d.Null() {
					return nil
				}
				s.bytes, s.ends = s.bytes[:0], s.ends[:0]
				if err := d.Array(func() error {
					if !d.Null() {
						b, err := d.Chars()
						if err != nil {
							return err
						}
						s.bytes = append(s.bytes, b...)
					}
					s.ends = append(s.ends, len(s.bytes))
					return nil
				}); err != nil {
					return err
				}
				if rec.Values = s.values[:0]; rec.Values == nil {
					rec.Values = []Value{}
				}
				all, start := string(s.bytes), 0
				for _, end := range s.ends {
					rec.Values = append(rec.Values, Value(all[start:end]))
					start = end
				}
				s.values = rec.Values
			case "redacted":
				if d.Null() {
					return nil
				}
				rec.Redacted = []int{}
				return d.Array(func() error {
					i, err := d.Integer()
					rec.Redacted = append(rec.Redacted, i)
					return err
				})
			}
			return err
		})
	})
	return rec, err
}

// The keys of each object, as its fields' json tags name them.
var (
	executionFields = []string{"id", "spec", "nodes", "edges", "items"}
	nodeFields      = []string{"id", "module", "proc", "kind", "frames"}
	frameFields     = []string{"proc", "module", "sub"}
	edgeFields      = []string{"from", "to", "items"}
	itemFields      = []string{"id", "attr", "value", "producer", "redacted"}
	recordFields    = []string{"like", "values", "redacted"}
)

func (d *decoder) execution(e *Execution) error {
	if d.Null() {
		return nil
	}
	return d.Object(executionFields, func(name string) (err error) {
		switch name {
		case "id":
			e.ID, err = d.Text()
		case "spec":
			e.SpecID, err = d.Text()
		case "nodes":
			if d.Null() {
				return nil
			}
			e.Nodes = []*Node{}
			return d.Array(func() error {
				n, err := d.node()
				e.Nodes = append(e.Nodes, n)
				return err
			})
		case "edges":
			if d.Null() {
				return nil
			}
			e.Edges = []Edge{}
			return d.Array(func() error {
				e.Edges = append(e.Edges, Edge{})
				return d.edge(&e.Edges[len(e.Edges)-1])
			})
		case "items":
			if d.Null() {
				return nil
			}
			e.Items = map[string]*DataItem{}
			return d.Members(func(key []byte) error {
				if _, dup := e.Items[string(key)]; dup {
					return d.Errorf("duplicate item %q", key)
				}
				id := string(key)
				if d.Null() {
					return d.Errorf("item %q is null", id)
				}
				it, err := d.item(id)
				e.Items[id] = it
				return err
			})
		}
		return err
	})
}

func (d *decoder) node() (*Node, error) {
	if d.Null() {
		return nil, d.Errorf("a node is null")
	}
	n := &Node{}
	return n, d.Object(nodeFields, func(name string) (err error) {
		switch name {
		case "id":
			n.ID, err = d.Text()
		case "module":
			n.Module, err = d.Text()
		case "proc":
			n.Proc, err = d.Text()
		case "kind":
			var k int
			k, err = d.Integer()
			n.Kind = NodeKind(k)
		case "frames":
			if d.Null() {
				return nil
			}
			n.Frames = []Frame{}
			return d.Array(func() error {
				n.Frames = append(n.Frames, Frame{})
				return d.frame(&n.Frames[len(n.Frames)-1])
			})
		}
		return err
	})
}

func (d *decoder) frame(f *Frame) error {
	if d.Null() {
		return nil
	}
	return d.Object(frameFields, func(name string) (err error) {
		switch name {
		case "proc":
			f.Proc, err = d.Text()
		case "module":
			f.Module, err = d.Text()
		case "sub":
			f.Sub, err = d.Text()
		}
		return err
	})
}

func (d *decoder) edge(ed *Edge) error {
	if d.Null() {
		return nil
	}
	return d.Object(edgeFields, func(name string) (err error) {
		switch name {
		case "from":
			ed.From, err = d.Text()
		case "to":
			ed.To, err = d.Text()
		case "items":
			if d.Null() {
				return nil
			}
			ed.Items = []string{}
			return d.Array(func() error {
				id, err := d.Text()
				ed.Items = append(ed.Items, id)
				return err
			})
		}
		return err
	})
}

// item reads the item filed under key id; an "id" equal to the key shares
// the key's string.
func (d *decoder) item(id string) (*DataItem, error) {
	it := &DataItem{}
	return it, d.Object(itemFields, func(name string) (err error) {
		switch name {
		case "id":
			if d.Null() {
				return nil
			}
			b, err := d.Chars()
			if it.ID = id; err == nil && string(b) != id {
				it.ID = string(b)
			}
			return err
		case "attr":
			it.Attr, err = d.Text()
		case "value":
			var v string
			v, err = d.Text()
			it.Value = Value(v)
		case "producer":
			it.Producer, err = d.Text()
		case "redacted":
			it.Redacted, err = d.Boolean()
		}
		return err
	})
}

// decoder reads the two encodings of an execution with jsonr's primitives.
type decoder struct{ jsonr.Decoder }
