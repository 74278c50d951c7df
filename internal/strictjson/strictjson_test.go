package strictjson

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzWriter checks Float and String against json.Marshal, byte for byte,
// NaN and ±Inf errors included.
func FuzzWriter(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789e-300, 5e-324, math.MaxFloat64, math.Inf(1), math.NaN()} {
		f.Add(v, "")
	}
	for _, s := range []string{"plain", `"quoted" \ back`, "<a href='x'>&amp;</a>", "\x00\x01\b\f\n\r\t\x1f\x7f", "   é 😀", "bad \xff\xfe \xed\xa0\x80 utf8"} {
		f.Add(1.0, s)
	}
	f.Fuzz(func(t *testing.T, v float64, s string) {
		var w Writer
		w.Float(v)
		want, err := json.Marshal(v)
		switch {
		case err != nil:
			if w.Err == nil || w.Err.Error() != err.Error() {
				t.Fatalf("Float(%v): error %v, json.Marshal %v", v, w.Err, err)
			}
		case string(w.B) != string(want):
			t.Fatalf("Float(%v) = %s, json.Marshal %s", v, w.B, want)
		}
		w = Writer{}
		w.String(s)
		if want, _ := json.Marshal(s); string(w.B) != string(want) {
			t.Fatalf("String(%q) = %s, json.Marshal %s", s, w.B, want)
		}
	})
}

// FuzzDecodeString checks String and Unquote against encoding/json on
// one string value.
func FuzzDecodeString(f *testing.F) {
	for _, s := range []string{`"plain"`, `"aé😀\ud800x\udc00\"\\\/\b\f\n\r\t"`, "\"bad \xff\xfe\xed\xa0\x80\"", `"\ud800A"`, `"unterminated`, `1`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want string
		wantErr := json.Unmarshal(data, &want)
		var got string
		gotErr := Decode(data, func(d *Decoder) { d.String(&got) })
		if wantErr != nil {
			return // json.Unmarshal also rejects trailing bytes, which Decode ignores
		}
		if gotErr != nil || got != want {
			t.Fatalf("%q: String = %q (%v), encoding/json %q", data, got, gotErr, want)
		}
		if data[0] == '"' {
			if u := string(Unquote(data[:len(data)-trailingSpace(data)])); u != want {
				t.Fatalf("%q: Unquote = %q, encoding/json %q", data, u, want)
			}
		}
	})
}

func trailingSpace(b []byte) int {
	n := 0
	for n < len(b) && isSpace(b[len(b)-1-n]) {
		n++
	}
	return n
}
