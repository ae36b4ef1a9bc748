package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"hammer/internal/viz"
)

// The golden files were captured from the pre-timer-wheel implementation
// (lazy-cancel binary heap, one scheduler event per injected transaction).
// These tests pin the determinism invariant of the hot-path overhaul: the
// wheel scheduler and streaming injection must reproduce the exact event
// interleaving of the original code, making serial quick-mode output
// byte-identical. Regenerate only if an experiment's semantics deliberately
// change: go run ./cmd/hammer-bench -exp fig6,fig7 -quick -parallel 1, then
// copy the CSVs over testdata/.

func goldenOpts() Options {
	opts := Quick()
	opts.Workers = 1 // serial: parallel sweeps interleave progress, not results
	return opts
}

func renderCSV(t *testing.T, header []string, rows [][]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := viz.CSV(&buf, header, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestFig6QuickSerialGolden(t *testing.T) {
	rows, err := Fig6(context.Background(), goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	header, csvRows := Fig6CSV(rows)
	checkGolden(t, "fig6_quick_serial.golden.csv", renderCSV(t, header, csvRows))
}

func TestFig7QuickSerialGolden(t *testing.T) {
	rows, err := Fig7(context.Background(), goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	header, csvRows := Fig7CSV(rows)
	checkGolden(t, "fig7_quick_serial.golden.csv", renderCSV(t, header, csvRows))
}
