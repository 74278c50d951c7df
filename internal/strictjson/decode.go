// Package strictjson reads and writes the repository's JSON wire types
// without reflection. It accepts exactly what encoding/json's Decoder
// with DisallowUnknownFields accepts, decodes it to the same values with
// the same error text, and writes exactly what json.Marshal writes. The
// types themselves list their fields by hand (spec.File and the serve
// request DTOs), so the only per-request work is one pass over the bytes.
//
// The quirks of encoding/json that this keeps:
//   - keys match field names case-insensitively (bytes.EqualFold);
//   - of duplicate keys the last wins, and an array decoded over an
//     earlier one reuses its elements, so element fields not named again
//     keep their earlier values;
//   - null leaves a struct, string, number or bool unchanged, and sets a
//     slice to nil;
//   - [] decodes to an empty, non-nil slice;
//   - bytes after the first complete value are ignored;
//   - syntax errors win over every other error; an error from a field's
//     own decoder (Reject) wins over type mismatches and unknown fields,
//     of which the first is reported.
package strictjson

import (
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit for objects and arrays.
const maxDepth = 10000

// Decoder reads one JSON value. Its methods decode the next value into a
// Go value; a syntax error unwinds to Decode.
type Decoder struct {
	data  []byte
	off   int
	depth int
	// text is data as one string, made on first use: plain string values
	// are substrings of it, so a decode allocates for its strings once.
	text string
	// path holds the JSON names of the fields being decoded, outermost
	// first, and owner the Go type of the struct owning the innermost
	// one: the context encoding/json puts in a type error.
	path    []string
	pathBuf [8]string
	owner   string
	// keyBuf holds an object key that needed unescaping.
	keyBuf []byte
	// saved is the first type mismatch or unknown field; rejected is the
	// first error a field's own decoder reported.
	saved, rejected error
}

// syntaxError carries a syntax error (or an early end of input) from the
// point of detection to Decode.
type syntaxError struct{ err error }

// Decode decodes the first JSON value in data with decode, which reads it
// through the Decoder's methods. Bytes after that value are ignored.
func Decode(data []byte, decode func(d *Decoder)) (err error) {
	d := &Decoder{data: data}
	d.path = d.pathBuf[:0]
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(syntaxError)
			if !ok {
				panic(r)
			}
			err = se.err
		}
	}()
	decode(d)
	if d.rejected != nil {
		return d.rejected
	}
	return d.saved
}

// Object decodes an object into the struct of Go type typ (for example
// "spec.File"). It hands each key to field, which decodes the value of a
// key it knows (after matching it with Field) and returns false for a key
// it does not. null leaves the struct unchanged; any other kind of value
// is a type mismatch.
func (d *Decoder) Object(typ string, field func(key []byte) bool) {
	switch d.begin() {
	case '{':
	case 'n':
		d.literal("null")
		return
	default:
		d.mismatch(typ)
		return
	}
	if d.enter() == '}' {
		d.leave()
		return
	}
	for {
		key := d.key()
		depth, owner := len(d.path), d.owner
		d.owner = typ
		if d.rejected != nil {
			d.skip()
		} else if !field(key) {
			d.save(errors.New("json: unknown field " + strconv.Quote(string(key))))
			d.skip()
		}
		d.path, d.owner = d.path[:depth], owner
		if !d.more('}', "after object key:value pair") {
			return
		}
	}
}

// Field reports whether key names the field name, matching as
// encoding/json does (bytes.EqualFold). On a match it enters the field,
// so a type error in its value names it.
func (d *Decoder) Field(key []byte, name string) bool {
	if !foldEqual(key, name) {
		return false
	}
	d.path = append(d.path, name)
	return true
}

// foldEqual is bytes.EqualFold(key, name) for a lower-case ASCII name,
// with a fast path for ASCII keys.
func foldEqual(key []byte, name string) bool {
	if len(key) == len(name) {
		i := 0
		for ; i < len(key); i++ {
			c, n := key[i], name[i]
			if c != n && !('a' <= n && n <= 'z' && c|0x20 == n) {
				break
			}
		}
		if i == len(key) {
			return true
		}
	}
	// Non-ASCII runes fold onto ASCII letters too: U+017F onto s,
	// U+212A onto k.
	for _, c := range key {
		if c >= utf8.RuneSelf {
			return bytes.EqualFold(key, []byte(name))
		}
	}
	return false
}

// Slice decodes an array into *s with elem decoding each element. Like
// encoding/json it decodes element i over (*s)[i] when the old backing
// array has one, sets *s to nil on null and to an empty slice on [];
// typ is the slice's Go type (for example "[]spec.EdgeSpec").
func Slice[T any](d *Decoder, s *[]T, typ string, elem func(*T, *Decoder)) {
	switch d.begin() {
	case '[':
	case 'n':
		d.literal("null")
		*s = nil
		return
	default:
		d.mismatch(typ)
		return
	}
	if d.enter() == ']' {
		d.leave()
		*s = []T{}
		return
	}
	v := *s
	for i := 0; ; i++ {
		switch {
		case i < cap(v):
			v = v[:i+1]
		case i == 0:
			// Room for a typical spec's vertex or edge list: growing
			// one element at a time from zero would reallocate 5 times
			// on the way to 11.
			v = make([]T, 1, 8)
		default:
			var zero T
			v = append(v, zero)
		}
		elem(&v[i], d)
		if !d.more(']', "after array element") {
			*s = v[:i+1]
			return
		}
	}
}

// String decodes a string.
func (d *Decoder) String(p *string) {
	switch d.begin() {
	case '"':
		start, end, plain := d.scanString()
		if plain {
			if d.text == "" {
				d.text = string(d.data)
			}
			*p = d.text[start:end]
		} else {
			*p = string(appendUnquoted(nil, d.data[start:end]))
		}
	case 'n':
		d.literal("null")
	default:
		d.mismatch("string")
	}
}

// Bool decodes a boolean.
func (d *Decoder) Bool(p *bool) {
	switch d.begin() {
	case 't':
		d.literal("true")
		*p = true
	case 'f':
		d.literal("false")
		*p = false
	case 'n':
		d.literal("null")
	default:
		d.mismatch("bool")
	}
}

// Float decodes a float64.
func (d *Decoder) Float(p *float64) {
	if b := d.number("float64"); b != nil {
		v, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			d.typeError("number "+string(b), "float64")
			return
		}
		*p = v
	}
}

// Int decodes an int.
func (d *Decoder) Int(p *int) {
	if b := d.number("int"); b != nil {
		v, err := strconv.ParseInt(string(b), 10, strconv.IntSize)
		if err != nil {
			d.typeError("number "+string(b), "int")
			return
		}
		*p = int(v)
	}
}

// Int64 decodes an int64.
func (d *Decoder) Int64(p *int64) {
	if b := d.number("int64"); b != nil {
		v, err := strconv.ParseInt(string(b), 10, 64)
		if err != nil {
			d.typeError("number "+string(b), "int64")
			return
		}
		*p = v
	}
}

// Uint64 decodes a uint64.
func (d *Decoder) Uint64(p *uint64) {
	if b := d.number("uint64"); b != nil {
		v, err := strconv.ParseUint(string(b), 10, 64)
		if err != nil {
			d.typeError("number "+string(b), "uint64")
			return
		}
		*p = v
	}
}

// Raw returns the next value's bytes as they appear in the input, for a
// field that decodes itself, as a json.Unmarshaler would.
func (d *Decoder) Raw() []byte {
	d.begin()
	start := d.off
	d.skip()
	return d.data[start:d.off]
}

// Reject records an error from a field's own decoder, as encoding/json
// returns an UnmarshalJSON error: it wins over type mismatches and
// unknown fields, and nothing after it is decoded, though the rest of the
// input is still checked for syntax errors.
func (d *Decoder) Reject(err error) {
	if d.rejected == nil {
		d.rejected = err
	}
}

// Unquote returns the contents of a JSON string literal (quotes
// included) with escapes resolved and invalid UTF-8 replaced by U+FFFD,
// as encoding/json decodes it. The literal must be well formed.
func Unquote(lit []byte) []byte {
	s := lit[1 : len(lit)-1]
	for _, c := range s {
		if c == '\\' || c >= utf8.RuneSelf {
			return appendUnquoted(nil, s)
		}
	}
	return s
}

// number returns the next value's bytes if it is a number. For null it
// returns nil; for any other value it records a mismatch against typ and
// returns nil.
func (d *Decoder) number(typ string) []byte {
	switch c := d.begin(); {
	case c == '-' || '0' <= c && c <= '9':
		return d.scanNumber()
	case c == 'n':
		d.literal("null")
	default:
		d.mismatch(typ)
	}
	return nil
}

// mismatch records that the next value cannot decode into Go type typ,
// naming its kind as encoding/json does, and skips it.
func (d *Decoder) mismatch(typ string) {
	var kind string
	switch d.data[d.off] {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	default:
		kind = "number"
	}
	d.skip()
	d.typeError(kind, typ)
}

// typeError records a json.UnmarshalTypeError's text.
func (d *Decoder) typeError(value, typ string) {
	if len(d.path) == 0 {
		d.save(errors.New("json: cannot unmarshal " + value + " into Go value of type " + typ))
		return
	}
	owner := d.owner[strings.LastIndexByte(d.owner, '.')+1:]
	d.save(errors.New("json: cannot unmarshal " + value + " into Go struct field " +
		owner + "." + strings.Join(d.path, ".") + " of type " + typ))
}

func (d *Decoder) save(err error) {
	if d.saved == nil {
		d.saved = err
	}
}

// The scanner. Each method checks the syntax of what it consumes and
// panics with encoding/json's message at the first byte that is wrong.

// fail reports the unexpected byte c.
func (d *Decoder) fail(c byte, context string) {
	var q string
	switch c {
	case '\'':
		q = `'\''`
	case '"':
		q = `'"'`
	default:
		s := strconv.Quote(string(rune(c)))
		q = "'" + s[1:len(s)-1] + "'"
	}
	panic(syntaxError{errors.New("invalid character " + q + " " + context)})
}

// eof reports the end of the input inside a value, or before any.
func (d *Decoder) eof() {
	for _, c := range d.data {
		if !isSpace(c) {
			panic(syntaxError{io.ErrUnexpectedEOF})
		}
	}
	panic(syntaxError{io.EOF})
}

func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\r' || c == '\n')
}

// next skips whitespace and returns the next byte without consuming it.
func (d *Decoder) next() byte {
	for d.off < len(d.data) {
		if c := d.data[d.off]; !isSpace(c) {
			return c
		}
		d.off++
	}
	d.eof()
	return 0
}

// begin skips to the next value and returns its first byte.
func (d *Decoder) begin() byte {
	c := d.next()
	switch {
	case c == '{' || c == '[' || c == '"' || c == '-' || c == 't' || c == 'f' || c == 'n',
		'0' <= c && c <= '9':
		return c
	}
	d.fail(c, "looking for beginning of value")
	return 0
}

// enter consumes the opening byte of an object or array and returns the
// next non-space byte.
func (d *Decoder) enter() byte {
	if d.depth++; d.depth > maxDepth {
		d.fail(d.data[d.off], "exceeded max depth")
	}
	d.off++
	return d.next()
}

// leave consumes the closing byte of an object or array.
func (d *Decoder) leave() {
	d.depth--
	d.off++
}

// more consumes the byte after an object member or array element: true
// for a comma, false for the closing byte end.
func (d *Decoder) more(end byte, context string) bool {
	switch c := d.next(); c {
	case ',':
		d.off++
		return true
	case end:
		d.leave()
		return false
	default:
		d.fail(c, context)
		return false
	}
}

// key consumes an object key and its colon, and returns the key
// unescaped.
func (d *Decoder) key() []byte {
	if c := d.next(); c != '"' {
		d.fail(c, "looking for beginning of object key string")
	}
	start, end, plain := d.scanString()
	key := d.data[start:end]
	if !plain {
		d.keyBuf = appendUnquoted(d.keyBuf[:0], key)
		key = d.keyBuf
	}
	if c := d.next(); c != ':' {
		d.fail(c, "after object key")
	}
	d.off++
	return key
}

// skip consumes one value.
func (d *Decoder) skip() {
	switch c := d.begin(); c {
	case '{':
		if d.enter() == '}' {
			d.leave()
			return
		}
		for {
			d.key()
			d.skip()
			if !d.more('}', "after object key:value pair") {
				return
			}
		}
	case '[':
		if d.enter() == ']' {
			d.leave()
			return
		}
		for {
			d.skip()
			if !d.more(']', "after array element") {
				return
			}
		}
	case '"':
		d.scanString()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		d.scanNumber()
	}
}

// literal consumes the literal word (true, false or null), whose first
// byte is already checked.
func (d *Decoder) literal(word string) {
	for i := 1; i < len(word); i++ {
		if d.off+i >= len(d.data) {
			d.eof()
		}
		if c := d.data[d.off+i]; c != word[i] {
			d.fail(c, "in literal "+word+" (expecting "+strconv.QuoteRune(rune(word[i]))+")")
		}
	}
	d.off += len(word)
}

// scanNumber consumes a number and returns its bytes.
func (d *Decoder) scanNumber() []byte {
	data, start, i := d.data, d.off, d.off
	digit := func(context string) {
		if i >= len(data) {
			d.eof()
		}
		if c := data[i]; c < '0' || c > '9' {
			d.fail(c, context)
		}
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
	}
	if data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else {
		digit("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		digit("after decimal point in numeric literal")
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		digit("in exponent of numeric literal")
	}
	d.off = i
	return data[start:i]
}

// scanString consumes a string literal and returns the bounds of its
// contents; plain reports that they are ASCII with no escapes, so the
// bytes are the value.
func (d *Decoder) scanString() (start, end int, plain bool) {
	data := d.data
	start, plain = d.off+1, true
	for i := start; ; {
		if i >= len(data) {
			d.eof()
		}
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return start, i, plain
		case c == '\\':
			plain = false
			if i++; i >= len(data) {
				d.eof()
			}
			switch data[i] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
				i++
			case 'u':
				i++
				for end := i + 4; i < end; i++ {
					if i >= len(data) {
						d.eof()
					}
					if !isHex(data[i]) {
						d.fail(data[i], `in \u hexadecimal character escape`)
					}
				}
			default:
				d.fail(data[i], "in string escape code")
			}
		case c < 0x20:
			d.fail(c, "in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// appendUnquoted appends the value of well-formed string contents s to
// dst the way encoding/json unquotes: escapes resolved, an unpaired
// surrogate escape and every byte of invalid UTF-8 replaced by U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch s[r+1] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+2:])); dec != utf8.RuneError {
							dst = utf8.AppendRune(dst, dec)
							r += 6
							continue
						}
					}
					rr = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, s[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// hex4 decodes four hex digits.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
