package queries

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// Query-log persistence: the standard one-query-per-line text format
// every real trace (including the Overture trace the paper used) comes
// in. Lines are whitespace-separated terms; blank lines and lines
// starting with '#' are skipped.

// maxLogLine is the longest line, newline included, ReadLog takes.
const maxLogLine = 1 << 20

// WriteLog streams queries to w, one per line. It refuses a query whose
// line ReadLog would not read back as the same terms: an empty one, one
// with an empty term or white space inside a term, one that starts with
// '#', one too long for a line.
func WriteLog(w io.Writer, qs []Query) error {
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

// ReadLog parses a query log written by WriteLog (or any one-per-line
// trace).
func ReadLog(r io.Reader) ([]Query, error) {
	var out []Query
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLogLine)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		out = append(out, Query{Terms: strings.Fields(text)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("queries: reading log line %d: %w", line, err)
	}
	return out, nil
}

// SaveLog writes queries to a file.
func SaveLog(path string, qs []Query) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("queries: %w", err)
	}
	defer f.Close()
	if err := WriteLog(f, qs); err != nil {
		return err
	}
	return f.Close()
}

// LoadLog reads queries from a file.
func LoadLog(path string) ([]Query, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("queries: %w", err)
	}
	defer f.Close()
	return ReadLog(f)
}
