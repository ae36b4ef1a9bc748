package experiments

import (
	"fmt"
	"time"

	"hammer/internal/eventsim"
	"hammer/internal/eventsim/heapsched"
	"hammer/internal/perf"
)

// SchedBenchRow is one configuration of the scheduler microbenchmark: the
// same deterministic event workload run on the original binary-heap
// scheduler (heapsched) or the timer-wheel scheduler (eventsim).
type SchedBenchRow struct {
	Impl           string
	Events         int
	Wall           time.Duration
	Allocs         uint64
	AllocBytes     uint64
	AllocsPerEvent float64
	EventsPerSec   float64
}

func (r SchedBenchRow) String() string {
	return fmt.Sprintf("%-16s %9d events in %8v  %11.0f events/s  %6.2f allocs/event",
		r.Impl, r.Events, r.Wall.Round(time.Millisecond), r.EventsPerSec, r.AllocsPerEvent)
}

// schedBenchResident is the steady-state pending-event population: large
// enough that heap operations pay their O(log n) and the wheel spreads over
// many buckets, small enough that the workload is schedule/fire dominated
// like a real simulation.
const schedBenchResident = 10_000

// schedDelay returns the deterministic delay sequence every scheduler
// replays: a xorshift stream shaped like a real simulation's mix — short
// compute costs, medium consensus/poll intervals (all inside the wheel
// window) — with every 64th delay pushed past the window so the overflow
// heap and cascade paths are exercised too.
func schedDelay(rng *uint64, n int) time.Duration {
	x := *rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*rng = x
	switch {
	case n%64 == 63:
		return 300*time.Millisecond + time.Duration(x%uint64(100*time.Millisecond))
	case n%4 == 0:
		return time.Duration(x % uint64(2*time.Millisecond))
	default:
		return time.Duration(x % uint64(200*time.Millisecond))
	}
}

// runSchedWorkload drives one scheduler through total events: resident
// self-rescheduling timer chains plus a cancellation every 16th fire
// (schedule a far timer, stop it immediately) so Stop cost is part of the
// measurement. Every implementation consumes the same delay stream.
func runSchedWorkload(after func(time.Duration, func()), stopLast func(), run func(), resident, total int) int {
	fired := 0
	scheduled := 0
	var rng uint64 = 0x9E3779B97F4A7C15
	spawn := func() {
		var fn func()
		fn = func() {
			fired++
			if fired%16 == 0 {
				after(500*time.Millisecond, func() {})
				stopLast()
			}
			if scheduled < total {
				n := scheduled
				scheduled++
				after(schedDelay(&rng, n), fn)
			}
		}
		n := scheduled
		scheduled++
		after(schedDelay(&rng, n), fn)
	}
	if resident > total {
		resident = total
	}
	for i := 0; i < resident; i++ {
		spawn()
	}
	run()
	return fired
}

// SchedBench runs the microbenchmark at the given event count and returns
// one row per scheduler: heap, then wheel. Both rows must fire the same
// number of events — a mismatch is a determinism bug and fails the
// benchmark.
func SchedBench(events int) ([]SchedBenchRow, error) {
	if events < 1 {
		return nil, fmt.Errorf("schedbench: event count must be positive, got %d", events)
	}
	heapRun := func() (func(time.Duration, func()), func(), func()) {
		s := heapsched.New()
		var last *heapsched.Timer
		after := func(d time.Duration, fn func()) { last = s.After(d, fn) }
		return after, func() { last.Stop() }, s.Run
	}
	wheelRun := func() (func(time.Duration, func()), func(), func()) {
		s := eventsim.New()
		var last eventsim.Timer
		after := func(d time.Duration, fn func()) { last = s.After(d, fn) }
		return after, func() { last.Stop() }, s.Run
	}
	configs := []struct {
		impl  string
		build func() (func(time.Duration, func()), func(), func())
	}{
		{"heap", heapRun},
		{"wheel", wheelRun},
	}

	var rows []SchedBenchRow
	for _, cfg := range configs {
		var fired int
		after, stopLast, run := cfg.build()
		row := SchedBenchRow{Impl: cfg.impl}
		sample, err := perf.Measure(row.Impl, func() error {
			fired = runSchedWorkload(after, stopLast, run, schedBenchResident, events)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if fired == 0 {
			return nil, fmt.Errorf("schedbench: %s fired no events", row.Impl)
		}
		if len(rows) > 0 && fired != rows[0].Events {
			return nil, fmt.Errorf("schedbench: %s fired %d events, %s fired %d — schedulers diverged",
				row.Impl, fired, rows[0].Impl, rows[0].Events)
		}
		row.Events = fired
		row.Wall = time.Duration(sample.WallSeconds * float64(time.Second))
		row.Allocs = sample.Allocs
		row.AllocBytes = sample.AllocBytes
		row.AllocsPerEvent = float64(sample.Allocs) / float64(fired)
		row.EventsPerSec = float64(fired) / sample.WallSeconds
		rows = append(rows, row)
	}
	return rows, nil
}

// SchedBenchCSV renders the rows for export.
func SchedBenchCSV(rows []SchedBenchRow) ([]string, [][]string) {
	header := []string{"impl", "events", "wall_ms", "events_per_sec", "allocs", "allocs_per_event"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Impl,
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%.1f", float64(r.Wall)/float64(time.Millisecond)),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%d", r.Allocs),
			fmt.Sprintf("%.3f", r.AllocsPerEvent),
		})
	}
	return header, out
}
