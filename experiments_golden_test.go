package cloudscope

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestExperimentsGolden pins the rendered text of every experiment, in
// registry order, against a committed golden. Deletions and rewrites
// that claim to change no output prove it here. Regenerate with
// -update.
func TestExperimentsGolden(t *testing.T) {
	s := NewStudy(detConfig(3, 1))
	var b strings.Builder
	for _, e := range Experiments() {
		b.WriteString("==== " + e.ID + ": " + e.Title + " ====\n")
		b.WriteString(e.Run(s))
		b.WriteString("\n")
	}
	got := b.String()
	path := filepath.Join("testdata", "experiments_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("experiments output diverged from golden %s at line %d (rerun with -update if intended):\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("experiments output diverged from golden %s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
