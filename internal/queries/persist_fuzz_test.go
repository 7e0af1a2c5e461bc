package queries

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// FuzzReadLog: a query log is untrusted bytes (somebody's trace, a file
// cut short), and what SaveLog writes is what a later run trains on. So
// ReadLog answers every input with queries or an error, never a panic, a
// line over the cap being an error; every query it returns has terms, each
// non-empty and free of white space; and WriteLog and ReadLog are each
// other's inverse from both ends — what ReadLog returned WriteLog accepts
// and ReadLog reads back equal, and what WriteLog accepts of the queries
// the input spells (0x00 between queries, 0x01 between terms, so that a
// term may hold anything else) ReadLog reads back equal too.
func FuzzReadLog(f *testing.F) {
	f.Add([]byte("# a trace\n\nbreast cancer\n   \nheart attack  \n# end"))
	f.Add([]byte("breast cancer\r\nheart attack\r\n"))        // CRLF line ends
	f.Add([]byte("#first\x01term\x00breast\x01cancer"))       // a query ReadLog takes for a comment
	f.Add([]byte("breast\tcancer\x01screening"))              // a term with a tab
	f.Add([]byte("heart\x01\x01attack\x00\x00line\nbreak"))   // an empty term, an empty query, a term with a newline
	f.Add([]byte("caf\u00e9\u00a0au\u2003lait\x85\xff \xa0")) // spaces beyond ASCII, and bytes that are no rune
	f.Add(bytes.Repeat([]byte("ab "), 2<<20/3))               // a 2 MiB line
	f.Fuzz(func(t *testing.T, data []byte) {
		readBack := func(what string, qs []Query) {
			t.Helper()
			var log bytes.Buffer
			if err := WriteLog(&log, qs); err != nil {
				t.Fatalf("WriteLog refuses %s: %v", what, err)
			}
			again, err := ReadLog(&log)
			if err != nil || !reflect.DeepEqual(again, qs) {
				t.Fatalf("%s came back changed (%v):\n%q\n%q", what, err, qs, again)
			}
		}

		qs, err := ReadLog(bytes.NewReader(data))
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > maxLogLine && err == nil {
				t.Fatalf("ReadLog read a log with a line of %d bytes", len(line))
			}
		}
		if err == nil {
			for i, q := range qs {
				if q.NumTerms() == 0 {
					t.Fatalf("query %d has no terms", i)
				}
				for _, term := range q.Terms {
					if term == "" || strings.ContainsFunc(term, unicode.IsSpace) {
						t.Fatalf("query %d has the term %q", i, term)
					}
				}
			}
			if len(qs) > 0 {
				readBack("what ReadLog returned", qs)
			}
		}

		var spelt []Query
		for _, q := range strings.Split(string(data), "\x00") {
			if one := []Query{{Terms: strings.Split(q, "\x01")}}; WriteLog(new(bytes.Buffer), one) == nil {
				spelt = append(spelt, one[0])
			}
		}
		if len(spelt) > 0 {
			readBack("what WriteLog accepted", spelt)
		}
	})
}
