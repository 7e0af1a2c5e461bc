package queries

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// Query-log persistence: the standard one-query-per-line text format
// every real trace (including the Overture trace the paper used) comes
// in. Lines are whitespace-separated terms; blank lines and lines
// starting with '#' are skipped.

// maxLogLine is the longest line, newline included, readLog takes.
const maxLogLine = 1 << 20

// readLog parses a one-query-per-line trace.
func readLog(r io.Reader) ([]Query, error) {
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

// LoadLog reads queries from a file.
func LoadLog(path string) ([]Query, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("queries: %w", err)
	}
	defer f.Close()
	return readLog(f)
}
