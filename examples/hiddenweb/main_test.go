package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// loopbackPort matches the free port a run's servers listened on.
var loopbackPort = regexp.MustCompile(`127\.0\.0\.1:[0-9]+`)

// TestOutputMatchesGolden runs the example and diffs what it prints,
// ports masked, against testdata/output.golden. After an intended
// change, rewrite the file with
// go run ./examples/hiddenweb | sed 's/127\.0\.0\.1:[0-9]*/127.0.0.1:PORT/' > examples/hiddenweb/testdata/output.golden.
func TestOutputMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := loopbackPort.ReplaceAllString(out.String(), "127.0.0.1:PORT"); got != string(want) {
		t.Errorf("output differs from testdata/output.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
