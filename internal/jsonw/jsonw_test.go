package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzMatchesEncodingJSON holds the appenders to encoding/json: a string
// (HTML-special and control bytes, U+2028/U+2029, invalid UTF-8), the
// same string in a list, and a float on both sides of the 1e-6 and 1e21
// format boundaries, negative zero and integers past 2^53. NaN and the
// infinities, which encoding/json refuses, must append null.
func FuzzMatchesEncodingJSON(f *testing.F) {
	for _, s := range []string{"", "plain", "<a&b>", "\"\\/", "\x00\x01\x1f\x7f\b\f\n\r\t", "x\u2028y\u2029z", "\xff\xfe bad \xe2\x82", "é☃\U0001F600", "\xed\xa0\x80"} {
		f.Add(s, 0.0)
	}
	for _, v := range []float64{1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-9, 1e21, math.Nextafter(1e21, 0), 1e22, -1e21, -1e-7, math.Copysign(0, -1), 1 << 53, 1<<53 + 2, 123456789012345678901, 0.1, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("", v)
	}
	f.Fuzz(func(t *testing.T, s string, v float64) {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("x"), s)[1:]; !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
		if got := AppendEscaped(nil, s); !bytes.Equal(got, want[1:len(want)-1]) {
			t.Fatalf("AppendEscaped(%q) = %s, encoding/json writes %s", s, got, want)
		}
		for _, ss := range [][]string{nil, {}, {s}, {s, "", s}} {
			want, _ := json.Marshal(ss)
			if got := AppendStrings(nil, ss); !bytes.Equal(got, want) {
				t.Fatalf("AppendStrings(%q) = %s, encoding/json writes %s", ss, got, want)
			}
		}
		want, err := json.Marshal(v)
		if err != nil {
			want = []byte("null") // NaN or ±Inf
		}
		if got := AppendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, want %s", v, got, want)
		}
	})
}
