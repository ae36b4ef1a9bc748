package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// savedRun is one run of one workload as the suite saw it.
type savedRun struct {
	detail
	Result result `json:"result"`
}

// savedSet is what the suite prints and -compare reads.
type savedSet struct {
	Env  *env       `json:"env"`
	Runs []savedRun `json:"runs"`
}

// heldOutSeed is kept away from the suite, so that a later claim can be
// checked on inputs nobody tuned against.
const heldOutSeed = 11

// suite runs every workload in order, each run in a process of its own so
// that setup_s and the resident peak mean what they do for a single run: per
// workload, runs untraced runs on consecutive seeds, then one traced run.
func suite(seed int64, seconds, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set savedSet
	for _, w := range workloads {
		runSeed := seed
		for i := 0; i <= runs; i++ {
			traced := i == runs
			if traced {
				runSeed = seed
			} else if runSeed == heldOutSeed {
				runSeed++
			}
			run, err := runChild(self, w.name, runSeed, seconds, traced, out)
			if err != nil {
				return err
			}
			set.Env, run.Env = run.Env, nil
			set.Runs = append(set.Runs, run)
			fmt.Fprintf(os.Stderr, "%s seed %d trace %v: %d iterations, correct %v\n",
				w.name, runSeed, traced, run.Iterations, run.Result.Correct)
			runSeed++
		}
	}
	doc, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(doc, '\n'))
	return err
}

func runChild(self, name string, seed int64, seconds int, traced bool, out string) (savedRun, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace, "-out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return savedRun{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte{'\n'})
	if len(lines) != 2 {
		return savedRun{}, fmt.Errorf("%s seed %d: want a detail and a result line, got %d lines", name, seed, len(lines))
	}
	var run savedRun
	if err := json.Unmarshal(lines[0], &run.detail); err != nil {
		return savedRun{}, fmt.Errorf("%s seed %d: detail line: %w", name, seed, err)
	}
	if err := json.Unmarshal(lines[1], &run.Result); err != nil {
		return savedRun{}, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return run, nil
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does, which is what the
// benchmark's acceptance rule is written in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// verdict applies one metric's bound to two sets of values. worse is how far
// B's median is on the wrong side of A's, as a share of A's; spread is the
// wider of the two sides' interquartile ranges, as a share of the median.
func verdict(b bound, a, bvals []float64) (v string, worse, spread float64) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(bvals)
	worse = (bm - am) / am
	if b.Better == "higher" {
		worse = -worse
	}
	spread = max((a3-a1)/am, (b3-b1)/bm)
	switch {
	case worse > b.Bound:
		return "worse", worse, spread
	case worse < -b.Bound:
		return "better", worse, spread
	case spread > b.Bound:
		// Too noisy to call unchanged.
		return "unresolved", worse, spread
	default:
		return "within bound", worse, spread
	}
}

type runKey struct {
	workload string
	seed     int64
}

// compareFiles prints one row per workload and end-to-end metric, B against
// A, and fails when any row is worse than its bound or when a run present on
// both sides simulated something different.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	var a, b savedSet
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}

	values := func(set savedSet, workload, metric string) []float64 {
		var vs []float64
		for _, r := range set.Runs {
			if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tB worse by\tspread\tbound\tverdict")
	bad := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\tmissing\n", wl.Name, m.Name)
				bad++
				continue
			}
			v, worse, spread := verdict(m, va, vb)
			if v == "worse" {
				bad++
			}
			_, am, _ := quartiles(va)
			_, bm, _ := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, am, m.Unit, bm, m.Unit, 100*worse, 100*spread, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Simulated statistics must repeat exactly for the same inputs.
	digests := make(map[runKey]string)
	for _, r := range a.Runs {
		digests[runKey{r.Workload, r.Seed}] = r.SimDigest
	}
	for _, r := range b.Runs {
		if want, ok := digests[runKey{r.Workload, r.Seed}]; ok && want != r.SimDigest {
			fmt.Fprintf(w, "%s seed %d: sim_digest differs: A %s, B %s\n", r.Workload, r.Seed, want, r.SimDigest)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse than their bound, missing, or simulate something else", bad)
	}
	return nil
}
