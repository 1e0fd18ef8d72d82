// Package jsonscan is a minimal, reflection-free reader for the strict JSON
// subset the project's own encoders emit: objects, arrays, unescaped
// valid-UTF-8 strings, integer literals, booleans and the four JSON
// whitespace bytes. It exists for hot decode paths (dfg graphs, hetsynthd
// solve bodies) that want one pass over the bytes and no per-value
// allocation.
//
// A Scanner never defines what input means. Every method reports false as
// soon as the input leaves the subset — an escape, a null, a fraction, a
// control byte, invalid UTF-8, a syntax error — and the caller then hands
// the whole input to its encoding/json decoder, which stays the single
// definition of the accepted language and of every error message. Anything
// a Scanner accepts, encoding/json decodes to the same values.
package jsonscan

import "unicode/utf8"

// maxDigits bounds the integer literals Int accepts: 19 decimal digits
// cover the whole int64 range and still fit a uint64 accumulator.
const maxDigits = 19

// Scanner reads JSON tokens from B starting at offset I. The zero value
// over a byte slice is ready to use.
type Scanner struct {
	B []byte
	I int
}

// Space skips JSON whitespace.
func (s *Scanner) Space() {
	for s.I < len(s.B) {
		switch s.B[s.I] {
		case ' ', '\t', '\n', '\r':
			s.I++
		default:
			return
		}
	}
}

// Peek skips whitespace and returns the next byte, or 0 at the end.
func (s *Scanner) Peek() byte {
	s.Space()
	if s.I < len(s.B) {
		return s.B[s.I]
	}
	return 0
}

// Byte skips whitespace and consumes c if it is the next byte.
func (s *Scanner) Byte(c byte) bool {
	if s.Peek() == c {
		s.I++
		return true
	}
	return false
}

// String reads a string in the subset and returns its content bytes, which
// alias B: callers that keep a value must copy it.
func (s *Scanner) String() ([]byte, bool) {
	if !s.Byte('"') {
		return nil, false
	}
	start, ascii := s.I, true
	for j := start; j < len(s.B); j++ {
		switch c := s.B[j]; {
		case c == '"':
			if !ascii && !utf8.Valid(s.B[start:j]) {
				return nil, false
			}
			s.I = j + 1
			return s.B[start:j], true
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// Int reads an integer literal in the int64 range: an optional minus sign
// and digits, with no leading zero, fraction or exponent.
func (s *Scanner) Int() (int64, bool) {
	s.Space()
	j, neg := s.I, false
	if j < len(s.B) && s.B[j] == '-' {
		j, neg = j+1, true
	}
	start := j
	var u uint64
	for j < len(s.B) && s.B[j] >= '0' && s.B[j] <= '9' {
		u = u*10 + uint64(s.B[j]-'0')
		j++
	}
	digits := j - start
	if digits == 0 || digits > maxDigits || (digits > 1 && s.B[start] == '0') {
		return 0, false
	}
	if j < len(s.B) {
		if c := s.B[j]; c == '.' || c == 'e' || c == 'E' {
			return 0, false
		}
	}
	if neg && u > 1<<63 || !neg && u > 1<<63-1 {
		return 0, false
	}
	s.I = j
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// Bool reads true or false.
func (s *Scanner) Bool() (v, ok bool) {
	s.Space()
	rest := s.B[s.I:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.I += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.I += 5
		return false, true
	}
	return false, false
}

// Object reads an object whose keys all come from names, each at most
// once. field is called with the index in names of each key, with the
// scanner positioned before the value, and must consume the value or
// return false. seen has bit i set when names[i] was read; ok is false on
// an unknown or repeated key, on syntax outside the subset, or when field
// returns false. names holds at most 32 keys.
func (s *Scanner) Object(names []string, field func(i int) bool) (seen uint32, ok bool) {
	if !s.Byte('{') {
		return 0, false
	}
	if s.Byte('}') {
		return 0, true
	}
	for {
		key, ok := s.String()
		if !ok || !s.Byte(':') {
			return seen, false
		}
		i := 0
		for i < len(names) && names[i] != string(key) {
			i++
		}
		if i == len(names) || seen&(1<<i) != 0 {
			return seen, false
		}
		seen |= 1 << i
		if !field(i) {
			return seen, false
		}
		if s.Byte('}') {
			return seen, true
		}
		if !s.Byte(',') {
			return seen, false
		}
	}
}

// Array reads an array, calling elem once per element with the scanner
// positioned before it; elem must consume the element or return false.
func (s *Scanner) Array(elem func() bool) bool {
	if !s.Byte('[') {
		return false
	}
	if s.Byte(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.Byte(']') {
			return true
		}
		if !s.Byte(',') {
			return false
		}
	}
}

// End reports whether only whitespace remains.
func (s *Scanner) End() bool {
	s.Space()
	return s.I == len(s.B)
}
