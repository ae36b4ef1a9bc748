package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// processStart approximates process start: package initialisation runs
// before main, right after the runtime is up.
var processStart = time.Now()

// metricDef names one metric and its unit; BENCHMARK.json repeats both and
// adds the direction and bound (the self-tests keep the two in step).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"sim_tx_per_s", "tx/s"},
	{"cpu_s_per_mtx", "s/Mtx"},
	{"allocs_per_tx", "1/tx"},
	{"alloc_bytes_per_tx", "B/tx"},
	{"live_heap_mb", "MB"},
	{"committed_share", "ratio"},
	{"setup_s", "s"},
}

// sample is one timed iteration as the process saw it from outside.
type sample struct {
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	// peakRSS is the process's resident high-water mark so far, in bytes.
	peakRSS float64
	tally   *tally
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// measure runs one full-scale iteration between two readings of the clock,
// the CPU accounting and the allocator. A collection first gives every
// iteration the same starting heap; the paged-state files are removed after
// the second reading.
func (b *bench) measure() (sample, error) {
	defer b.cleanup()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, err := cpuTime()
	if err != nil {
		return sample{}, err
	}
	start := time.Now()
	t, err := b.iteration(1)
	wall := time.Since(start)
	if err != nil {
		return sample{}, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return sample{}, err
	}
	runtime.ReadMemStats(&after)
	rss, err := peakRSS()
	if err != nil {
		return sample{}, err
	}
	return sample{
		wall:       wall,
		cpu:        cpu1 - cpu0,
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		peakRSS:    rss,
		tally:      t,
	}, nil
}

// peakRSS reads the process's resident high-water mark in bytes.
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range bytes.Split(status, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) == 2 && string(fields[1]) == "kB" {
				kb, err := strconv.ParseFloat(string(fields[0]), 64)
				if err != nil {
					return 0, fmt.Errorf("peak rss: %w", err)
				}
				return kb * 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// medianOf reduces per-iteration readings to one value.
func medianOf[T any](items []T, f func(T) float64) float64 {
	vs := make([]float64, len(items))
	for i, it := range items {
		vs[i] = f(it)
	}
	_, m, _ := quartiles(vs)
	return m
}

// endToEndMetrics reduces the timed iterations to the seven metrics a user
// of the framework sees; each is the median over the iterations, but for the
// live heap, which the untimed memory pass measured and which repeats.
func endToEndMetrics(samples []sample, setups []time.Duration, liveHeapBytes uint64) map[string]float64 {
	tx := func(s sample) float64 { return float64(s.tally.submitted) }
	return map[string]float64{
		"sim_tx_per_s":       medianOf(samples, func(s sample) float64 { return tx(s) / s.wall.Seconds() }),
		"cpu_s_per_mtx":      medianOf(samples, func(s sample) float64 { return s.cpu.Seconds() / tx(s) * 1e6 }),
		"allocs_per_tx":      medianOf(samples, func(s sample) float64 { return float64(s.mallocs) / tx(s) }),
		"alloc_bytes_per_tx": medianOf(samples, func(s sample) float64 { return float64(s.allocBytes) / tx(s) }),
		"live_heap_mb":       float64(liveHeapBytes) / 1e6,
		"committed_share":    medianOf(samples, func(s sample) float64 { return float64(s.tally.committed) / tx(s) }),
		"setup_s":            medianOf(setups, time.Duration.Seconds),
	}
}
