package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownRunIDRefused: a -run list naming an id the registry does
// not list is a usage error (status 2) that prints no table.
func TestUnknownRunIDRefused(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, list := range []string{"F99", "EWROK", "F14,F99", ""} {
		var stdout, stderr strings.Builder
		cmd := exec.Command(bin, "-run", list)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-run %q: exit %v, want a usage error (status 2)", list, err)
		}
		if !strings.Contains(stderr.String(), "unknown table id") {
			t.Errorf("-run %q: stderr does not name the unknown id:\n%s", list, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-run %q printed tables:\n%s", list, stdout.String())
		}
	}
}
