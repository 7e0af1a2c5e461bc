package queries

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// FuzzReadLog: a query log is untrusted bytes (somebody's trace, a file
// cut short), and a trace is what a later run trains on. So
// readLog answers every input with queries or an error, never a panic, a
// line over the cap being an error; every query it returns has terms, each
// non-empty and free of white space; and writeLog and readLog are each
// other's inverse from both ends — what readLog returned writeLog accepts
// and readLog reads back equal, and what writeLog accepts of the queries
// the input spells (0x00 between queries, 0x01 between terms, so that a
// term may hold anything else) readLog reads back equal too.
func FuzzReadLog(f *testing.F) {
	f.Add([]byte("# a trace\n\nbreast cancer\n   \nheart attack  \n# end"))
	f.Add([]byte("breast cancer\r\nheart attack\r\n"))        // CRLF line ends
	f.Add([]byte("#first\x01term\x00breast\x01cancer"))       // a query readLog takes for a comment
	f.Add([]byte("breast\tcancer\x01screening"))              // a term with a tab
	f.Add([]byte("heart\x01\x01attack\x00\x00line\nbreak"))   // an empty term, an empty query, a term with a newline
	f.Add([]byte("caf\u00e9\u00a0au\u2003lait\x85\xff \xa0")) // spaces beyond ASCII, and bytes that are no rune
	f.Add(bytes.Repeat([]byte("ab "), 2<<20/3))               // a 2 MiB line
	f.Fuzz(func(t *testing.T, data []byte) {
		readBack := func(what string, qs []Query) {
			t.Helper()
			var log bytes.Buffer
			if err := writeLog(&log, qs); err != nil {
				t.Fatalf("writeLog refuses %s: %v", what, err)
			}
			again, err := readLog(&log)
			if err != nil || !reflect.DeepEqual(again, qs) {
				t.Fatalf("%s came back changed (%v):\n%q\n%q", what, err, qs, again)
			}
		}

		qs, err := readLog(bytes.NewReader(data))
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > maxLogLine && err == nil {
				t.Fatalf("readLog read a log with a line of %d bytes", len(line))
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
				readBack("what readLog returned", qs)
			}
		}

		var spelt []Query
		for _, q := range strings.Split(string(data), "\x00") {
			if one := []Query{{Terms: strings.Split(q, "\x01")}}; writeLog(new(bytes.Buffer), one) == nil {
				spelt = append(spelt, one[0])
			}
		}
		if len(spelt) > 0 {
			readBack("what writeLog accepted", spelt)
		}
	})
}

// writeLog streams queries to w, one per line, the inverse the fuzz
// target holds readLog to. It refuses a query whose
// line readLog would not read back as the same terms: an empty one, one
// with an empty term or white space inside a term, one that starts with
// '#', one too long for a line.
func writeLog(w io.Writer, qs []Query) error {
	bw := bufio.NewWriter(w)
	for i, q := range qs {
		line := q.String()
		if line == "" || line[0] == '#' || len(line) >= maxLogLine || !slices.Equal(strings.Fields(line), q.Terms) {
			return fmt.Errorf("queries: query %d would not read back from its log line (no terms, an empty term, white space in a term, a leading '#' or %d bytes and over)", i, maxLogLine)
		}
		if _, err := bw.WriteString(line); err != nil {
			return fmt.Errorf("queries: writing log: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("queries: writing log: %w", err)
		}
	}
	return bw.Flush()
}
