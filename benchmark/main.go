// Command benchmark is the repository's one pinned end-to-end benchmark:
// four fixed workloads pushed through the whole evaluation pipeline
// (generate → sign → submit → consensus → execute → seal → match → report),
// seven end-to-end metrics measured with tracing off, and a traced run that
// splits an iteration's wall time by layer. README.md has the tables.
//
//	go run ./benchmark -workload fig6-peak -seed 7            one workload
//	go run ./benchmark -runs 10 > a.json                      all four, ten seeds each
//	go run ./benchmark -compare a.json b.json                 apply the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// minIterations is how many timed iterations a run makes at least; more
// follow until -seconds have been measured.
const minIterations = 5

// setupRepeats is how many times a run sets up: one set-up builds the
// workload at 1/10 scale and runs it once, untimed, as the warm-up.
const setupRepeats = 3

const warmupScale = 10

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct bool `json:"correct"`
	// Attempted counts the transactions pushed through the framework in
	// the full-size iterations; Failed counts those it lost track of. A
	// simulated chain rejecting or timing out a transaction is an outcome
	// the framework reports (committed_share), not a failed operation.
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is the line before it: what ran, and the digest of every simulated
// statistic, to compare between two commits.
type detail struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Trace      bool      `json:"trace"`
	Iterations int       `json:"iterations"`
	WallS      []float64 `json:"wall_s"`
	SimDigest  string    `json:"sim_digest"`
	Failures   []string  `json:"failures,omitempty"`
	Env        *env      `json:"env,omitempty"`
}

type env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
}

func environment() *env {
	e := &env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		Commit:     "unknown",
	}
	if e.GOGC == "" {
		e.GOGC = "100"
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload, each in its own process)")
		seed    = flag.Int64("seed", 7, "seed for every profile, engine, chain and source; 11 is held out for later claims")
		seconds = flag.Int("seconds", 20, "how long a run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from traced iterations")
		out     = flag.String("out", os.TempDir(), "directory for paged-state files and trace-<workload>.jsonl")
		runs    = flag.Int("runs", 1, "without -workload: untraced runs per workload, on seeds seed, seed+1, …")
		compare = flag.Bool("compare", false, "apply BENCHMARK.json's bounds to two saved sets of runs: -compare A.json B.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two files")
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *name == "" {
		return suite(*seed, *seconds, *runs, *out)
	}

	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	// An evaluation is a batch job on one simulation goroutine; the second
	// processor serves the signing pool and the collector.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	d, r, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace != 0, *out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(d); err != nil {
		return err
	}
	if err := enc.Encode(r); err != nil {
		return err
	}
	if !r.Correct {
		return fmt.Errorf("%s: output checks failed: %q", w.name, d.Failures)
	}
	return nil
}

func runWorkload(w workload, seed int64, budget time.Duration, trace bool, out string) (*detail, *result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, nil, err
	}
	b := &bench{workload: w, seed: seed, out: out}

	setups := make([]time.Duration, setupRepeats)
	for i := range setups {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if _, err := b.iteration(warmupScale); err != nil {
			return nil, nil, err
		}
		b.cleanup()
		setups[i] = time.Since(start)
	}

	d := &detail{Workload: w.name, Seed: seed, Trace: trace, Env: environment()}
	r := &result{Metrics: make(map[string]metricValue)}
	measuring := time.Now()
	var samples []sample
	// checked are the tallies of every full-size iteration, timed or not.
	var checked []*tally
	record := func(s sample) {
		samples = append(samples, s)
		checked = append(checked, s.tally)
		d.WallS = append(d.WallS, s.wall.Seconds())
	}

	if !trace {
		for len(samples) < minIterations || time.Since(measuring) < budget {
			s, err := b.measure()
			if err != nil {
				return nil, nil, err
			}
			record(s)
		}
		// The memory pass: one more iteration, untimed, that collects at
		// the end of every run to read the heap still live.
		b.probeHeap = true
		pass, err := b.iteration(1)
		b.cleanup()
		if err != nil {
			return nil, nil, err
		}
		checked = append(checked, pass)
		values := endToEndMetrics(samples, setups, pass.liveHeap)
		for _, m := range endToEnd {
			r.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
	} else {
		untraced, err := b.measure()
		if err != nil {
			return nil, nil, err
		}
		record(untraced)
		b.tr = newTracer()
		var perIteration []map[string]float64
		for len(perIteration) == 0 || time.Since(measuring) < budget {
			b.tr.reset()
			s, err := b.measure()
			if err != nil {
				return nil, nil, err
			}
			record(s)
			perIteration = append(perIteration, layerMetrics(b.tr, s, untraced))
		}
		for _, m := range perLayer {
			v := medianOf(perIteration, func(it map[string]float64) float64 { return it[m.name] })
			r.Metrics[m.name] = metricValue{v, m.unit}
		}
		if err := b.tr.writeSampled(filepath.Join(out, "trace-"+w.name+".jsonl")); err != nil {
			return nil, nil, err
		}
	}

	d.Iterations = len(samples)
	d.SimDigest = checked[0].simDigest()
	for i, t := range checked {
		r.Attempted += t.submitted
		r.Failed += t.unaccounted
		d.Failures = append(d.Failures, t.failures...)
		if got := t.simDigest(); got != d.SimDigest {
			d.Failures = append(d.Failures, fmt.Sprintf("iteration %d: sim_digest %s differs from the first iteration's", i, got))
		}
	}
	r.Correct = len(d.Failures) == 0 && r.Failed == 0
	return d, r, nil
}
