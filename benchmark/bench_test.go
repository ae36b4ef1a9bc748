package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// testScale shrinks every workload enough for the race detector.
const testScale = 20

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameStrings(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s:\n got  %v\n want %v", what, got, want)
	}
}

// The decorators must not reorder events: a traced iteration simulates
// exactly what an untraced one does. The same iterations show that the spans
// nest (self time is never negative) and that a traced run reports every
// per-layer metric and nothing else.
func TestTracedIterationMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			b := &bench{workload: w, seed: 7, out: t.TempDir()}
			defer b.cleanup()
			plain, err := b.iteration(testScale)
			if err != nil {
				t.Fatal(err)
			}
			b.tr = newTracer()
			traced, err := b.iteration(testScale)
			if err != nil {
				t.Fatal(err)
			}
			if plain.simDigest() != traced.simDigest() {
				t.Errorf("sim_digest: untraced %s, traced %s", plain.simDigest(), traced.simDigest())
			}
			for _, tl := range []*tally{plain, traced} {
				if tl.unaccounted != 0 || tl.submitted == 0 {
					t.Errorf("submitted %d, unaccounted %d", tl.submitted, tl.unaccounted)
				}
				if got := tl.committed + tl.aborted + tl.rejected + tl.timedOut; got != tl.submitted {
					t.Errorf("outcomes sum to %d, submitted %d", got, tl.submitted)
				}
			}
			for o, st := range b.tr.stat {
				if st.self < 0 || st.busy < st.self {
					t.Errorf("%s: busy %v, self %v", opNames[o], st.busy, st.self)
				}
			}
			if len(b.tr.stack) != 0 {
				t.Errorf("%d spans left open", len(b.tr.stack))
			}
			if b.tr.stat[opChainsEvent].count == 0 || b.tr.stat[opCoreEvent].count == 0 || b.tr.stat[opSubmit].count == 0 {
				t.Errorf("decorators saw no calls: %+v", b.tr.stat)
			}
			got := layerMetrics(b.tr, sample{tally: traced}, sample{wall: time.Second})
			sameStrings(t, "per-layer metrics", keys(got), names(perLayer))

			path := filepath.Join(b.out, "trace.jsonl")
			if err := b.tr.writeSampled(path); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var first spanRecord
			line, _, _ := bytes.Cut(raw, []byte{'\n'})
			if err := json.Unmarshal(line, &first); err != nil || first.Name == "" || first.EndNs < first.StartNs {
				t.Errorf("first trace line %q: %v", line, err)
			}
		})
	}
}

// BENCHMARK.json is the contract other tools read; the program must emit
// exactly the names and units it lists.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sameStrings(t, "workloads", have, listed)

	check := func(what string, defs []metricDef, listed []bound) {
		var got, want []string
		for _, d := range defs {
			got = append(got, d.name+" "+d.unit)
		}
		for _, b := range listed {
			want = append(want, b.Name+" "+b.Unit)
			if b.Better != "higher" && b.Better != "lower" {
				t.Errorf("%s %s: better is %q", what, b.Name, b.Better)
			}
		}
		sameStrings(t, what, got, want)
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)

	one := sample{wall: time.Second, cpu: time.Second, tally: &tally{submitted: 1, committed: 1}}
	got := endToEndMetrics([]sample{one}, []time.Duration{time.Second}, 1e6)
	sameStrings(t, "end-to-end metrics", keys(got), names(endToEnd))
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{99, 100, 100, 100, 101}
	noisy := []float64{70, 85, 100, 115, 130}
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	lower := bound{Name: "latency", Better: "lower", Bound: 0.10}
	higher := bound{Name: "rate", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		b    bound
		a, v []float64
		want string
	}{
		{"same", lower, steady, steady, "within bound"},
		{"small rise", lower, steady, scale(steady, 1.05), "within bound"},
		{"large rise of a cost", lower, steady, scale(steady, 1.2), "worse"},
		{"large fall of a cost", lower, steady, scale(steady, 0.8), "better"},
		{"large rise of a rate", higher, steady, scale(steady, 1.2), "better"},
		{"large fall of a rate", higher, steady, scale(steady, 0.8), "worse"},
		{"too noisy to call unchanged", lower, steady, noisy, "unresolved"},
		{"worse even when noisy", lower, steady, scale(noisy, 1.5), "worse"},
	} {
		if got, _, _ := verdict(c.b, c.a, c.v); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", map[string]any{
		"workloads":  []map[string]string{{"name": "w"}},
		"end_to_end": []bound{{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1}},
	})
	set := func(rate float64, digest string) savedSet {
		run := savedRun{detail: detail{Workload: "w", Seed: 7, SimDigest: digest}}
		run.Result.Metrics = map[string]metricValue{"rate": {rate, "1/s"}}
		return savedSet{Runs: []savedRun{run}}
	}
	base := write("a.json", set(100, "d1"))
	var out bytes.Buffer
	if err := compareFiles(&out, spec, base, write("same.json", set(95, "d1"))); err != nil {
		t.Errorf("within bound: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, spec, base, write("slow.json", set(80, "d1"))); err == nil {
		t.Error("a rate 20% lower passed")
	}
	if err := compareFiles(&out, spec, base, write("moved.json", set(100, "d2"))); err == nil {
		t.Error("a different sim_digest passed")
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "sim_digest differs") {
		t.Errorf("output names neither failure:\n%s", out.String())
	}
}
