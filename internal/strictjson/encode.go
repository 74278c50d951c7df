package strictjson

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Writer appends the compact JSON json.Marshal writes for the same
// values: struct fields in order, floats in encoding/json's number
// format, strings HTML-escaped.
type Writer struct {
	B []byte
	// Err is the first value JSON cannot represent (NaN or ±Inf), with
	// json.Marshal's error text.
	Err error
}

// Open starts an object.
func (w *Writer) Open() { w.B = append(w.B, '{') }

// Close ends an object.
func (w *Writer) Close() { w.B = append(w.B, '}') }

// Key starts the object member name, with a comma before every member
// but the first. name must need no escaping.
func (w *Writer) Key(name string) {
	if w.B[len(w.B)-1] != '{' {
		w.B = append(w.B, ',')
	}
	w.B = append(w.B, '"')
	w.B = append(w.B, name...)
	w.B = append(w.B, '"', ':')
}

// List writes s as an array, elem writing each element, or null for a
// nil slice.
func List[T any](w *Writer, s []T, elem func(*T, *Writer)) {
	if s == nil {
		w.B = append(w.B, "null"...)
		return
	}
	w.B = append(w.B, '[')
	for i := range s {
		if i > 0 {
			w.B = append(w.B, ',')
		}
		elem(&s[i], w)
	}
	w.B = append(w.B, ']')
}

// Bool writes a boolean.
func (w *Writer) Bool(v bool) { w.B = strconv.AppendBool(w.B, v) }

// Int writes an integer.
func (w *Writer) Int(v int64) { w.B = strconv.AppendInt(w.B, v, 10) }

// Uint writes an unsigned integer.
func (w *Writer) Uint(v uint64) { w.B = strconv.AppendUint(w.B, v, 10) }

// Float writes a float64 as encoding/json does: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 up, with
// a one-digit negative exponent unpadded (1e-7, not 1e-07).
func (w *Writer) Float(v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		if w.Err == nil {
			w.Err = unsupportedValue(strconv.FormatFloat(v, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.B, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	w.B = b
}

// htmlSafe marks the ASCII bytes String writes as they are.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

type unsupportedValue string

func (e unsupportedValue) Error() string { return "json: unsupported value: " + string(e) }

// String writes a string as encoding/json does with HTML escaping: a
// quote, a backslash and control bytes escaped; <, > and & as \u003c,
// \u003e and \u0026; U+2028 and U+2029 as \u2028 and \u2029; and each
// byte of invalid UTF-8 as \ufffd.
func (w *Writer) String(s string) {
	const hex = "0123456789abcdef"
	b := append(w.B, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
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
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.B = append(b, '"')
}
