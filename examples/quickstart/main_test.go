package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesGolden runs the example and diffs what it prints
// against testdata/output.golden. After an intended change, rewrite the
// file with go run ./examples/quickstart > examples/quickstart/testdata/output.golden.
func TestOutputMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from testdata/output.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
