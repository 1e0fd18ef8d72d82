package jsonscan

import (
	"encoding/json"
	"testing"
)

func TestIntMatchesEncodingJSON(t *testing.T) {
	for _, in := range []string{"0", "-0", "7", "-12", "123456789012345678", "1234567890123456789",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"9999999999999999999", "10000000000000000000",
		"01", "-", "1.5", "1e3", "2E1", "+1", "", "x", "1.", "-01"} {
		s := Scanner{B: []byte(in)}
		got, ok := s.Int()
		var want int64
		jerr := json.Unmarshal([]byte(in), &want)
		if ok && (jerr != nil || got != want || !s.End()) {
			t.Errorf("Int(%q) = %d, accepted; encoding/json: %d, %v", in, got, want, jerr)
		}
		if !ok && s.I != 0 {
			t.Errorf("Int(%q) declined but consumed %d bytes", in, s.I)
		}
		if !ok && jerr == nil {
			t.Errorf("Int(%q) declined an int64 encoding/json accepts (%d)", in, want)
		}
	}
}

func TestStringSubset(t *testing.T) {
	cases := map[string]bool{
		`"abc"`:         true,
		` "ü→€"`:        true,
		`""`:            true,
		`"a\"b"`:        false,
		`"a\nb"`:        false,
		"\"a\tb\"":      false,
		"\"a\xffb\"":    false,
		`"unterminated`: false,
		`abc`:           false,
	}
	for in, want := range cases {
		s := Scanner{B: []byte(in)}
		b, ok := s.String()
		if ok != want {
			t.Errorf("String(%q) ok=%v, want %v", in, ok, want)
			continue
		}
		if !ok {
			continue
		}
		var dec string
		if err := json.Unmarshal([]byte(in), &dec); err != nil || dec != string(b) || !s.End() {
			t.Errorf("String(%q) = %q; encoding/json: %q, %v", in, b, dec, err)
		}
	}
}

func TestObjectArrayBool(t *testing.T) {
	s := Scanner{B: []byte(` { "a" : [ true , false ] , "b" : [ ] } `)}
	var got []bool
	var keys []int
	seen, ok := s.Object([]string{"a", "b", "c"}, func(i int) bool {
		keys = append(keys, i)
		return s.Array(func() bool {
			v, ok := s.Bool()
			got = append(got, v)
			return ok
		})
	})
	if !ok || !s.End() || seen != 3 || len(keys) != 2 || keys[0] != 0 || keys[1] != 1 || len(got) != 2 || !got[0] || got[1] {
		t.Fatalf("ok=%v end=%v seen=%b keys=%v bools=%v", ok, s.End(), seen, keys, got)
	}
	for _, bad := range []string{`{"a":[true,]}`, `{"a":[true}`, `{"a" [true]}`, `{,}`, `[tru]`, `{"a":[true]`,
		`{"d":[]}`, `{"A":[]}`, `{"a":[],"a":[]}`} {
		s := Scanner{B: []byte(bad)}
		if _, ok := s.Object([]string{"a", "b"}, func(int) bool {
			return s.Array(func() bool { _, ok := s.Bool(); return ok })
		}); ok && s.End() {
			t.Errorf("accepted %q", bad)
		}
	}
}
