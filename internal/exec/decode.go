package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"unicode/utf16"
	"unicode/utf8"
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
	d := decoder{data: data}
	e := &Execution{}
	if err := d.document(func() error { return d.execution(e) }); err != nil {
		return nil, fmt.Errorf("exec: decode execution: %w", err)
	}
	return e, nil
}

// decodeValueRecord reads a value record (MarshalValues), its values into
// the space of values, whose length is ignored.
func decodeValueRecord(data []byte, values []Value) (valueRecord, error) {
	d := decoder{data: data}
	var rec valueRecord
	err := d.document(func() error {
		if d.null() {
			return nil
		}
		return d.object(recordFields, func(name string) (err error) {
			switch name {
			case "like":
				rec.Like, err = d.text()
			case "values":
				if d.null() {
					return nil
				}
				if rec.Values = values[:0]; rec.Values == nil {
					rec.Values = []Value{}
				}
				return d.array(func() error {
					v, err := d.text()
					rec.Values = append(rec.Values, Value(v))
					return err
				})
			case "redacted":
				if d.null() {
					return nil
				}
				rec.Redacted = []int{}
				return d.array(func() error {
					i, err := d.integer()
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
	if d.null() {
		return nil
	}
	return d.object(executionFields, func(name string) (err error) {
		switch name {
		case "id":
			e.ID, err = d.text()
		case "spec":
			e.SpecID, err = d.text()
		case "nodes":
			if d.null() {
				return nil
			}
			e.Nodes = []*Node{}
			return d.array(func() error {
				n, err := d.node()
				e.Nodes = append(e.Nodes, n)
				return err
			})
		case "edges":
			if d.null() {
				return nil
			}
			e.Edges = []Edge{}
			return d.array(func() error {
				e.Edges = append(e.Edges, Edge{})
				return d.edge(&e.Edges[len(e.Edges)-1])
			})
		case "items":
			if d.null() {
				return nil
			}
			e.Items = map[string]*DataItem{}
			return d.members(func(key []byte) error {
				if _, dup := e.Items[string(key)]; dup {
					return d.errorf("duplicate item %q", key)
				}
				id := string(key)
				if d.null() {
					return d.errorf("item %q is null", id)
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
	if d.null() {
		return nil, d.errorf("a node is null")
	}
	n := &Node{}
	return n, d.object(nodeFields, func(name string) (err error) {
		switch name {
		case "id":
			n.ID, err = d.text()
		case "module":
			n.Module, err = d.text()
		case "proc":
			n.Proc, err = d.text()
		case "kind":
			var k int
			k, err = d.integer()
			n.Kind = NodeKind(k)
		case "frames":
			if d.null() {
				return nil
			}
			n.Frames = []Frame{}
			return d.array(func() error {
				n.Frames = append(n.Frames, Frame{})
				return d.frame(&n.Frames[len(n.Frames)-1])
			})
		}
		return err
	})
}

func (d *decoder) frame(f *Frame) error {
	if d.null() {
		return nil
	}
	return d.object(frameFields, func(name string) (err error) {
		switch name {
		case "proc":
			f.Proc, err = d.text()
		case "module":
			f.Module, err = d.text()
		case "sub":
			f.Sub, err = d.text()
		}
		return err
	})
}

func (d *decoder) edge(ed *Edge) error {
	if d.null() {
		return nil
	}
	return d.object(edgeFields, func(name string) (err error) {
		switch name {
		case "from":
			ed.From, err = d.text()
		case "to":
			ed.To, err = d.text()
		case "items":
			if d.null() {
				return nil
			}
			ed.Items = []string{}
			return d.array(func() error {
				id, err := d.text()
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
	return it, d.object(itemFields, func(name string) (err error) {
		switch name {
		case "id":
			if d.null() {
				return nil
			}
			b, err := d.chars()
			if it.ID = id; err == nil && string(b) != id {
				it.ID = string(b)
			}
			return err
		case "attr":
			it.Attr, err = d.text()
		case "value":
			var v string
			v, err = d.text()
			it.Value = Value(v)
		case "producer":
			it.Producer, err = d.text()
		case "redacted":
			it.Redacted, err = d.boolean()
		}
		return err
	})
}

// decoder is a cursor over one JSON document. Errors name the offset they
// were found at.
type decoder struct {
	data []byte
	pos  int
	buf  []byte // a string's unquoted bytes, when they differ from its quoted ones
}

// document reads one value with value and refuses anything but
// whitespace after it.
func (d *decoder) document(value func() error) error {
	if err := value(); err != nil {
		return err
	}
	if d.ws(); d.pos < len(d.data) {
		return d.errorf("data after the value")
	}
	return nil
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{d.pos}, args...)...)
}

// ws skips whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	if d.ws(); d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// unexpected reports that the next value is not the kind the reader wants.
func (d *decoder) unexpected(want string) error {
	if d.pos >= len(d.data) {
		return d.errorf("unexpected end of input, want %s", want)
	}
	return d.errorf("unexpected %q, want %s", d.data[d.pos], want)
}

// null consumes a null, if that is the next value.
func (d *decoder) null() bool {
	if d.peek() == 'n' && bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		d.pos += 4
		return true
	}
	return false
}

// delim consumes c, which must be the next byte after whitespace.
func (d *decoder) delim(c byte) error {
	if d.peek() != c {
		return d.unexpected(fmt.Sprintf("%q", c))
	}
	d.pos++
	return nil
}

// array reads an array, calling each with the reader at every element.
func (d *decoder) array(each func() error) error {
	if err := d.delim('['); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := each(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.unexpected("',' or ']'")
		}
	}
}

// members reads an object, calling each with every key, unquoted, and the
// reader at its value. The key is valid until the next read.
func (d *decoder) members(each func(key []byte) error) error {
	if err := d.delim('{'); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		key, err := d.chars()
		if err != nil {
			return err
		}
		if err := d.delim(':'); err != nil {
			return err
		}
		if err := each(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.unexpected("',' or '}'")
		}
	}
}

// object reads an object whose keys are names, calling each with the name
// every key matches. A key matching none of them, or one an earlier key of
// the object matched, is refused.
func (d *decoder) object(names []string, each func(name string) error) error {
	var seen uint
	return d.members(func(key []byte) error {
		i := field(key, names)
		if i < 0 {
			return d.errorf("unknown key %q", key)
		}
		if seen&(1<<i) != 0 {
			return d.errorf("duplicate key %q", key)
		}
		seen |= 1 << i
		return each(names[i])
	})
}

// field returns the index of the name key matches, or -1.
func field(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// boolean reads true, false or null (false).
func (d *decoder) boolean() (bool, error) {
	switch {
	case d.null():
		return false, nil
	case bytes.HasPrefix(d.data[d.pos:], []byte("true")):
		d.pos += 4
		return true, nil
	case bytes.HasPrefix(d.data[d.pos:], []byte("false")):
		d.pos += 5
		return false, nil
	}
	return false, d.unexpected("a boolean")
}

// integer reads an integer, or null (0). A number with a fraction or an
// exponent is refused, as encoding/json refuses it for an int.
func (d *decoder) integer() (int, error) {
	if d.null() {
		return 0, nil
	}
	start, neg := d.pos, false
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		neg = true
		d.pos++
	}
	digits := d.pos
	var n uint64
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		if n > (math.MaxUint64-9)/10 {
			return 0, d.errorf("integer out of range")
		}
		n = 10*n + uint64(d.data[d.pos]-'0')
		d.pos++
	}
	switch {
	case d.pos == digits:
		d.pos = start
		return 0, d.unexpected("an integer")
	case d.data[digits] == '0' && d.pos > digits+1:
		return 0, d.errorf("integer with a leading zero")
	case d.pos < len(d.data) && (d.data[d.pos] == '.' || d.data[d.pos] == 'e' || d.data[d.pos] == 'E'):
		return 0, d.errorf("number is not an integer")
	case neg && n > -math.MinInt64:
		return 0, d.errorf("integer out of range")
	case neg:
		return int(-n), nil
	case n > math.MaxInt64:
		return 0, d.errorf("integer out of range")
	}
	return int(n), nil
}

// text reads a string, or null ("").
func (d *decoder) text() (string, error) {
	if d.null() {
		return "", nil
	}
	b, err := d.chars()
	return string(b), err
}

// chars reads a string and returns its unquoted bytes: a slice of the input
// when they need no unquoting, else the decoder's buffer, valid until the
// next read.
func (d *decoder) chars() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.unexpected("a string")
	}
	start := d.pos + 1
	if q := bytes.IndexByte(d.data[start:], '"'); q >= 0 && plain(d.data[start:start+q]) {
		d.pos = start + q + 1
		return d.data[start : start+q], nil
	}
	return d.unquote()
}

const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// plain reports whether s, the bytes between a string's quotes, are the
// string: no escape, no control byte, valid UTF-8.
func plain(s []byte) bool {
	if bytes.IndexByte(s, '\\') >= 0 {
		return false
	}
	// Sixteen bytes at a time while they are all printable ASCII: a byte
	// below 0x20 borrows into its top bit, one above 0x7f has it set.
	i := 0
	for ; i+16 <= len(s); i += 16 {
		a, b := binary.LittleEndian.Uint64(s[i:]), binary.LittleEndian.Uint64(s[i+8:])
		if ((a-0x20*lsb)|a|(b-0x20*lsb)|b)&msb != 0 {
			break
		}
	}
	return !hasControl(s[i:]) && utf8.Valid(s[i:])
}

// hasControl reports whether s holds a byte below 0x20: one borrows into
// its top bit, which no byte at or above 0x20 does (&^ w drops those at or
// above 0x80, whose top bit is their own).
func hasControl(s []byte) bool {
	for ; len(s) >= 8; s = s[8:] {
		if w := binary.LittleEndian.Uint64(s); (w-0x20*lsb)&^w&msb != 0 {
			return true
		}
	}
	for _, c := range s {
		if c < 0x20 {
			return true
		}
	}
	return false
}

// unquote reads the string at the reader into the decoder's buffer the way
// encoding/json unquotes one.
func (d *decoder) unquote() ([]byte, error) {
	b := d.buf[:0]
	i := d.pos + 1
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos, d.buf = i+1, b
			return b, nil
		case c < 0x20:
			d.pos = i
			return nil, d.errorf("control byte %#x in string", c)
		case c < utf8.RuneSelf && c != '\\':
			j := i + 1
			for j < len(d.data) && 0x20 <= d.data[j] && d.data[j] < utf8.RuneSelf && d.data[j] != '"' && d.data[j] != '\\' {
				j++
			}
			b = append(b, d.data[i:j]...)
			i = j
		case c == '\\':
			if i+1 >= len(d.data) {
				i++
				continue
			}
			switch esc := d.data[i+1]; esc {
			case '"', '\\', '/':
				b = append(b, esc)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[i:])
				if r < 0 {
					d.pos = i
					return nil, d.errorf("malformed \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A pair is one rune; a surrogate outside one is U+FFFD,
					// and what follows it is read on its own.
					if dec := utf16.DecodeRune(r, hex4(d.data[i:])); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = i
				return nil, d.errorf("malformed escape")
			}
			i += 2
		default:
			r, n := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && n == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, d.data[i:i+n]...)
			}
			i += n
		}
	}
	d.pos = i
	return nil, d.errorf("unterminated string")
}

// hex4 reads the escape \uXXXX at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
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
