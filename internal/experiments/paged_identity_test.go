package experiments

import (
	"context"
	"testing"

	"hammer/internal/harness"
)

// These tests pin the storage-identity claim of the paged state store: the
// state backend is an engine implementation detail, so swapping the in-RAM
// map for disk-backed pages must change no observable result — not the
// golden CSV bytes, not the conformance commit/state digests.

func pagedOpts(t *testing.T) Options {
	t.Helper()
	opts := Quick()
	opts.StateBackend = "paged"
	opts.StateCacheMB = 8
	opts.States = NewStateRuntime()
	t.Cleanup(func() {
		if err := opts.States.Close(); err != nil {
			t.Errorf("closing paged stores: %v", err)
		}
	})
	return opts
}

// TestFig6PagedBackendGolden reruns the Fig 6 quick sweep on the paged
// backend and compares against the same golden file the mem backend pins —
// the strongest form of the identity claim.
func TestFig6PagedBackendGolden(t *testing.T) {
	opts := pagedOpts(t)
	opts.Workers = 1 // serial, like the golden capture
	rows, err := Fig6(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.States.Stores() == 0 {
		t.Fatal("paged backend selected but no store was opened")
	}
	header, csvRows := Fig6CSV(rows)
	checkGolden(t, "fig6_quick_serial.golden.csv", renderCSV(t, header, csvRows))
}

// TestConformancePagedDigestIdentity runs the instrumented conformance runs
// on both backends and requires identical commit and state digests per run
// — the invariant/conformance suites of PR 5 re-proved over the paged
// engine.
func TestConformancePagedDigestIdentity(t *testing.T) {
	run := func(opts Options) []conformanceRun {
		opts.fillDefaults()
		rows, err := harness.Collect(harness.Execute(context.Background(),
			conformanceRuns(opts), opts.harnessOptions()))
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	memRows := run(Quick())
	pagedRows := run(pagedOpts(t))
	if len(memRows) != len(pagedRows) {
		t.Fatalf("row counts differ: %d vs %d", len(memRows), len(pagedRows))
	}
	for i, m := range memRows {
		p := pagedRows[i]
		if m.Commits == 0 {
			t.Errorf("%s run %d committed nothing", m.Chain, i)
		}
		if m.CommitDigest != p.CommitDigest {
			t.Errorf("%s run %d: commit digest differs mem vs paged", m.Chain, i)
		}
		if m.StateDigest != p.StateDigest {
			t.Errorf("%s run %d: state digest differs mem vs paged", m.Chain, i)
		}
		if len(p.Violations) > 0 {
			t.Errorf("%s run %d on paged backend: %d invariant violations, first: %s",
				p.Chain, i, len(p.Violations), p.Violations[0])
		}
		if p.Replayed && p.ReplayErr != nil {
			t.Errorf("%s run %d on paged backend: serial replay: %v", p.Chain, i, p.ReplayErr)
		}
	}
}

// TestBlockbenchBackendIdentity checks the experiment's own mem/paged row
// pairs agree on everything the SUT observes.
func TestBlockbenchBackendIdentity(t *testing.T) {
	opts := Quick()
	opts.StateCacheMB = 8
	rows, err := Blockbench(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows)%2 != 0 {
		t.Fatalf("odd row count %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		mem, paged := rows[i], rows[i+1]
		if mem.Backend != "mem" || paged.Backend != "paged" || mem.Workload != paged.Workload {
			t.Fatalf("unexpected row order: %+v / %+v", mem, paged)
		}
		if mem.Committed == 0 {
			t.Errorf("%s committed nothing", mem.Workload)
		}
		if mem.Committed != paged.Committed || mem.Aborted != paged.Aborted ||
			mem.Throughput != paged.Throughput || mem.AvgLatency != paged.AvgLatency {
			t.Errorf("%s: mem and paged rows diverge:\n  mem   %s\n  paged %s",
				mem.Workload, mem, paged)
		}
		if paged.Workload != "donothing" && paged.CacheHitRate == 0 {
			t.Errorf("%s: paged row reports no cache traffic", paged.Workload)
		}
	}
}
