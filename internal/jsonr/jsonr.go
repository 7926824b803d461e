// Package jsonr is a cursor over one JSON document, the reading mirror of
// internal/jsonw: the primitives the hand-written readers of executions
// (internal/exec) and specifications (internal/workflow) are built from, so
// the tree has one JSON scanner besides encoding/json. It reads what
// encoding/json reads, the way it reads it: strings unquoted as it unquotes
// them (escapes, surrogate pairs, U+FFFD for each invalid UTF-8 byte), keys
// matched to names as it matches them to fields (exactly, else under Unicode
// case folding, which is bytes.EqualFold), integers refused when they have a
// fraction or an exponent, and nesting refused past its depth limit. What a
// reader does with a null, an unknown key or a repeated one is its own
// choice: Object refuses the last two, Members hands every key over.
package jsonr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's limit on nested arrays and objects.
const maxDepth = 10000

// Decoder is a cursor over one JSON document. Errors name the offset they
// were found at.
type Decoder struct {
	data  []byte
	pos   int
	depth int    // arrays and objects open around the cursor
	buf   []byte // a string's unquoted bytes, when they differ from its quoted ones
}

// New returns a decoder at the start of data.
func New(data []byte) Decoder { return Decoder{data: data} }

// Document reads one value with value and refuses anything but
// whitespace after it.
func (d *Decoder) Document(value func() error) error {
	if err := value(); err != nil {
		return err
	}
	if d.ws(); d.pos < len(d.data) {
		return d.Errorf("data after the value")
	}
	return nil
}

// Errorf returns an error at the cursor's offset.
func (d *Decoder) Errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{d.pos}, args...)...)
}

// ws skips whitespace.
func (d *Decoder) ws() {
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
func (d *Decoder) peek() byte {
	if d.ws(); d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// unexpected reports that the next value is not the kind the reader wants.
func (d *Decoder) unexpected(want string) error {
	if d.pos >= len(d.data) {
		return d.Errorf("unexpected end of input, want %s", want)
	}
	return d.Errorf("unexpected %q, want %s", d.data[d.pos], want)
}

// Null consumes a null, if that is the next value.
func (d *Decoder) Null() bool {
	if d.peek() == 'n' && bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		d.pos += 4
		return true
	}
	return false
}

// delim consumes c, which must be the next byte after whitespace.
func (d *Decoder) delim(c byte) error {
	if d.peek() != c {
		return d.unexpected(fmt.Sprintf("%q", c))
	}
	d.pos++
	return nil
}

// open consumes c, the opening delimiter of an array or an object.
func (d *Decoder) open(c byte) error {
	if err := d.delim(c); err != nil {
		return err
	}
	if d.depth++; d.depth > maxDepth {
		return d.Errorf("nesting deeper than %d", maxDepth)
	}
	return nil
}

// Array reads an array, calling each with the reader at every element.
func (d *Decoder) Array(each func() error) error {
	if err := d.open('['); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.pos++
		d.depth--
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
			d.depth--
			return nil
		default:
			return d.unexpected("',' or ']'")
		}
	}
}

// Members reads an object, calling each with every key, unquoted, and the
// reader at its value. The key is valid until the next read.
func (d *Decoder) Members(each func(key []byte) error) error {
	if err := d.open('{'); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		key, err := d.Chars()
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
			d.depth--
			return nil
		default:
			return d.unexpected("',' or '}'")
		}
	}
}

// Object reads an object whose keys are names, calling each with the name
// every key matches. A key matching none of them, or one an earlier key of
// the object matched, is refused.
func (d *Decoder) Object(names []string, each func(name string) error) error {
	var seen uint
	return d.Members(func(key []byte) error {
		i := Field(key, names)
		if i < 0 {
			return d.Errorf("unknown key %q", key)
		}
		if seen&(1<<i) != 0 {
			return d.Errorf("duplicate key %q", key)
		}
		seen |= 1 << i
		return each(names[i])
	})
}

// Field returns the index of the name key matches, or -1.
func Field(key []byte, names []string) int {
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

// Skip reads any one value, checking it as encoding/json checks what it
// does not store.
func (d *Decoder) Skip() error {
	switch c := d.peek(); {
	case c == '"':
		_, err := d.Chars()
		return err
	case c == '[':
		return d.Array(d.Skip)
	case c == '{':
		return d.Members(func([]byte) error { return d.Skip() })
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	for _, lit := range []string{"null", "true", "false"} {
		if bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
			d.pos += len(lit)
			return nil
		}
	}
	return d.unexpected("a value")
}

// number reads a number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *Decoder) number() error {
	start := d.pos
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		d.pos++
	}
	digits := func() int {
		n := 0
		for ; d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9'; d.pos++ {
			n++
		}
		return n
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case digits() == 0:
		d.pos = start
		return d.unexpected("a number")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if digits() == 0 {
			return d.unexpected("a digit")
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		if d.pos++; d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if digits() == 0 {
			return d.unexpected("a digit")
		}
	}
	return nil
}

// Boolean reads true, false or null (false).
func (d *Decoder) Boolean() (bool, error) {
	switch {
	case d.Null():
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

// Integer reads an integer, or null (0). A number with a fraction or an
// exponent is refused, as encoding/json refuses it for an int.
func (d *Decoder) Integer() (int, error) {
	if d.Null() {
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
			return 0, d.Errorf("integer out of range")
		}
		n = 10*n + uint64(d.data[d.pos]-'0')
		d.pos++
	}
	switch {
	case d.pos == digits:
		d.pos = start
		return 0, d.unexpected("an integer")
	case d.data[digits] == '0' && d.pos > digits+1:
		return 0, d.Errorf("integer with a leading zero")
	case d.pos < len(d.data) && (d.data[d.pos] == '.' || d.data[d.pos] == 'e' || d.data[d.pos] == 'E'):
		return 0, d.Errorf("number is not an integer")
	case neg && n > -math.MinInt64:
		return 0, d.Errorf("integer out of range")
	case neg:
		return int(-n), nil
	case n > math.MaxInt64:
		return 0, d.Errorf("integer out of range")
	}
	return int(n), nil
}

// Text reads a string, or null ("").
func (d *Decoder) Text() (string, error) {
	if d.Null() {
		return "", nil
	}
	b, err := d.Chars()
	return string(b), err
}

// Chars reads a string and returns its unquoted bytes: a slice of the input
// when they need no unquoting, else the decoder's buffer, valid until the
// next read.
func (d *Decoder) Chars() ([]byte, error) {
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
func (d *Decoder) unquote() ([]byte, error) {
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
			return nil, d.Errorf("control byte %#x in string", c)
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
					return nil, d.Errorf("malformed \\u escape")
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
				return nil, d.Errorf("malformed escape")
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
	return nil, d.Errorf("unterminated string")
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
