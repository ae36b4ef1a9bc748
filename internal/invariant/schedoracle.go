package invariant

import (
	"fmt"
	"time"

	"hammer/internal/eventsim"
	"hammer/internal/eventsim/heapsched"
	"hammer/internal/randx"
)

// Program parameterises the differential replay oracle's synthetic workload:
// a chain-shaped event program (jittered injection, count/timeout batch
// cutting, costed execution, periodic polling) interpreted identically
// against the timer-wheel scheduler and the preserved binary-heap reference.
// Any divergence in firing order, clock reads or Stop semantics between the
// two backends shows up as a mismatched event log.
type Program struct {
	// Seed drives the jitter stream (same draws on both backends).
	Seed int64
	// Duration is the virtual time the program runs for.
	Duration time.Duration
	// InjectEvery is the mean gap between injected transactions; JitterFrac
	// spreads it (0 disables jitter).
	InjectEvery time.Duration
	JitterFrac  float64
	// CutSize cuts a batch on count; BatchTimeout cuts a partial batch.
	CutSize      int
	BatchTimeout time.Duration
	// ExecCost delays each cut batch's commit.
	ExecCost time.Duration
	// PollEvery is the observer ticker interval.
	PollEvery time.Duration
}

// DefaultProgram returns a program shaped like the quick experiments: ~1k
// transactions through count- and timeout-cut batches with an observing
// poller.
func DefaultProgram(seed int64) Program {
	return Program{
		Seed:         seed,
		Duration:     2 * time.Second,
		InjectEvery:  2 * time.Millisecond,
		JitterFrac:   0.5,
		CutSize:      37,
		BatchTimeout: 45 * time.Millisecond,
		ExecCost:     11 * time.Millisecond,
		PollEvery:    100 * time.Millisecond,
	}
}

// schedBackend is the least common denominator of the two scheduler
// implementations the oracle drives.
type schedBackend interface {
	now() time.Duration
	after(d time.Duration, fn func()) (stop func() bool)
	every(d time.Duration, fn func()) (stop func())
	runUntil(t time.Duration)
}

type wheelBackend struct{ s *eventsim.Scheduler }

func (w wheelBackend) now() time.Duration { return w.s.Now() }
func (w wheelBackend) after(d time.Duration, fn func()) func() bool {
	t := w.s.After(d, fn)
	return t.Stop
}
func (w wheelBackend) every(d time.Duration, fn func()) func() {
	t := w.s.Every(d, fn)
	return t.Stop
}
func (w wheelBackend) runUntil(t time.Duration) { w.s.RunUntil(t) }

type heapBackend struct{ s *heapsched.Scheduler }

func (h heapBackend) now() time.Duration { return h.s.Now() }
func (h heapBackend) after(d time.Duration, fn func()) func() bool {
	t := h.s.After(d, fn)
	return t.Stop
}
func (h heapBackend) every(d time.Duration, fn func()) func() {
	t := h.s.Every(d, fn)
	return t.Stop
}
func (h heapBackend) runUntil(t time.Duration) { h.s.RunUntil(t) }

// runProgram interprets the program against one backend and returns its
// event log: one line per commit and per poll observation, carrying the
// virtual timestamps and contents a divergent scheduler would get wrong.
func runProgram(b schedBackend, p Program) []string {
	rng := randx.New(p.Seed)
	var (
		log        []string
		queue      []int
		nextTx     int
		height     int
		cancelCut  func() bool
		cutPending bool
	)
	commit := func(batch []int) {
		height++
		first, last := -1, -1
		if len(batch) > 0 {
			first, last = batch[0], batch[len(batch)-1]
		}
		log = append(log, fmt.Sprintf("commit h=%d t=%v n=%d first=%d last=%d",
			height, b.now(), len(batch), first, last))
	}
	cut := func() {
		if cutPending && cancelCut != nil {
			cancelCut()
		}
		cutPending = false
		if len(queue) == 0 {
			return
		}
		batch := queue
		queue = nil
		b.after(rng.Jitter(p.ExecCost, p.JitterFrac), func() { commit(batch) })
	}
	var inject func()
	inject = func() {
		queue = append(queue, nextTx)
		nextTx++
		if len(queue) >= p.CutSize {
			cut()
		} else if !cutPending {
			cutPending = true
			cancelCut = b.after(p.BatchTimeout, func() {
				cutPending = false
				cut()
			})
		}
		if b.now() < p.Duration-p.BatchTimeout {
			b.after(rng.Jitter(p.InjectEvery, p.JitterFrac), inject)
		}
	}
	stopPoll := b.every(p.PollEvery, func() {
		log = append(log, fmt.Sprintf("poll t=%v height=%d queued=%d", b.now(), height, len(queue)))
	})
	b.after(0, inject)
	b.runUntil(p.Duration)
	stopPoll()
	log = append(log, fmt.Sprintf("end t=%v injected=%d height=%d queued=%d", b.now(), nextTx, height, len(queue)))
	return log
}

// DiffSchedulers runs the program on the timer wheel and on the binary-heap
// reference and returns an error describing the first divergence between
// their event logs, or nil when the two logs are byte-identical.
func DiffSchedulers(p Program) error {
	wheel := runProgram(wheelBackend{s: eventsim.New()}, p)
	ref := runProgram(heapBackend{s: heapsched.New()}, p)
	return diffLogs("wheel", wheel, "heap", ref)
}

// diffLogs reports the first line-level divergence between two event logs.
func diffLogs(aName string, a []string, bName string, b []string) error {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Errorf("invariant: scheduler divergence at event %d:\n  %s: %s\n  %s: %s", i, aName, a[i], bName, b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("invariant: scheduler divergence: %s logged %d events, %s %d", aName, len(a), bName, len(b))
	}
	return nil
}
