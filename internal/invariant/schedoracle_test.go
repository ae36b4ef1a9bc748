package invariant

import (
	"strings"
	"testing"
	"time"

	"hammer/internal/eventsim"
)

func TestDiffSchedulersAgreeAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		if err := DiffSchedulers(DefaultProgram(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDiffSchedulersAgreeOnEdgeShapedPrograms(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Program)
	}{
		{"no jitter", func(p *Program) { p.JitterFrac = 0 }},
		{"tiny batches", func(p *Program) { p.CutSize = 1 }},
		{"timeout-dominated", func(p *Program) { p.CutSize = 10_000; p.BatchTimeout = 7 * time.Millisecond }},
		{"instant exec", func(p *Program) { p.ExecCost = 0 }},
		{"poll storm", func(p *Program) { p.PollEvery = time.Millisecond }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultProgram(3)
			p.Duration = 500 * time.Millisecond
			tc.mod(&p)
			if err := DiffSchedulers(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiffSchedulersAcrossShardAndKeyCounts sweeps short programs over a
// range of seeds, so the wheel and the heap reference are compared on many
// distinct jitter streams rather than the few long ones above.
func TestDiffSchedulersAcrossShardAndKeyCounts(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p := DefaultProgram(seed)
		p.Duration = 500 * time.Millisecond
		if err := DiffSchedulers(p); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRunProgramProducesCommitsAndPolls(t *testing.T) {
	p := DefaultProgram(5)
	log := runProgram(wheelBackend{s: eventsim.New()}, p)
	var commits, polls int
	for _, line := range log {
		switch {
		case strings.HasPrefix(line, "commit"):
			commits++
		case strings.HasPrefix(line, "poll"):
			polls++
		}
	}
	if commits == 0 || polls == 0 {
		t.Fatalf("program exercised nothing: %d commits, %d polls over %d events", commits, polls, len(log))
	}
	if !strings.HasPrefix(log[len(log)-1], "end ") {
		t.Fatalf("log should end with the summary line, got %q", log[len(log)-1])
	}
}

func TestRunProgramIsDeterministicPerBackend(t *testing.T) {
	p := DefaultProgram(11)
	a := runProgram(wheelBackend{s: eventsim.New()}, p)
	b := runProgram(wheelBackend{s: eventsim.New()}, p)
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}
