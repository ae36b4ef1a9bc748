// Package perf holds the profiling plumbing behind the CLIs' -cpuprofile and
// -memprofile flags: thin wrappers over runtime/pprof. Throughput is measured
// elsewhere — per package by `go test -bench`, end to end by benchmark/.
package perf

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins a CPU profile into path and returns the stop
// function to defer.
func StartCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("perf: create cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("perf: start cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeapProfile dumps a GC-settled heap profile to path.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perf: create heap profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("perf: write heap profile: %w", err)
	}
	return nil
}
