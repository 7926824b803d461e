// Package jsonw appends JSON values to a byte slice exactly as
// encoding/json's default Encoder writes them: strings HTML-escaped, floats
// in the shortest form that round-trips. The read routes write their answers
// with it instead of reflecting over envelope types; FuzzMatchesEncodingJSON
// holds every function here to encoding/json.
package jsonw

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// htmlSafe reports the bytes a JSON string carries unescaped: ASCII but
// control bytes and the five above. A byte of a multi-byte sequence is
// decided by the rune it starts.
var htmlSafe = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s as a JSON string.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	b = AppendEscaped(b, s)
	return append(b, '"')
}

// AppendEscaped appends the body of the JSON string s, quotes excluded:
// `"` and `\` escaped, the control bytes as \b \f \n \r \t or \u00XX, `<`,
// `>` and `&` as \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and every
// byte of invalid UTF-8 as \ufffd.
func AppendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if htmlSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// AppendStrings appends ss as a JSON array of strings, null when ss is nil.
func AppendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, s)
	}
	return append(b, ']')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 up,
// with a one-digit negative exponent left unpadded (1e-7, not 1e-07).
// encoding/json refuses NaN and the infinities, which no JSON number spells;
// they are written as null.
func AppendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
