// Package heapsched preserves the original binary-heap discrete-event
// scheduler that internal/eventsim shipped with before the timer-wheel
// rewrite. It is kept for two jobs: (1) it is the semantic reference the
// randomized property test drives the wheel scheduler against — same firing
// order, same clock, same Stop results — and (2) it is the baseline side of
// eventsim's BenchmarkHeapScheduleFire and BenchmarkHeapCancel, which
// quantify the rewrite's win against their BenchmarkWheel* pairs.
//
// Stop removes events eagerly via an indexed heap.Remove. The original
// lazy-cancel scheme left a dead entry in the heap until the queue rotated
// past it, so a workload that arms and stops timers in a loop (connection
// timeouts, retry guards) grew the heap without bound relative to its live
// event count.
//
// Do not use it in new simulation code; internal/eventsim is strictly
// faster and semantically identical.
package heapsched

import (
	"container/heap"
	"fmt"
	"time"
)

// Scheduler is the original discrete-event scheduler: a binary heap ordered
// by (time, sequence) with eagerly-removed cancellations.
type Scheduler struct {
	now     time.Duration
	queue   eventHeap
	seq     uint64
	stopped bool
}

// New returns an empty scheduler whose clock reads zero.
func New() *Scheduler {
	return &Scheduler{}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() time.Duration {
	return s.now
}

// Timer is a handle to a scheduled event; Stop cancels it.
type Timer struct {
	s  *Scheduler
	ev *event
}

// Stop cancels the timer's event if it has not fired yet, removing it from
// the heap immediately (the maintained index field makes this an O(log n)
// heap.Remove, not a tombstone that lingers until the queue rotates).
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.cancelled || t.ev.fired {
		return false
	}
	t.ev.cancelled = true
	heap.Remove(&t.s.queue, t.ev.index)
	return true
}

type event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
	index     int
}

// At schedules fn to run at absolute virtual time t.
func (s *Scheduler) At(t time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("heapsched: At called with nil function")
	}
	if t < s.now {
		panic(fmt.Sprintf("heapsched: scheduling event at %v before now %v", t, s.now))
	}
	ev := &event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, ev)
	return &Timer{s: s, ev: ev}
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Ticker repeatedly fires fn at a fixed virtual interval until stopped.
type Ticker struct {
	s        *Scheduler
	interval time.Duration
	fn       func()
	timer    *Timer
	stopped  bool
}

// Every schedules fn to run every interval.
func (s *Scheduler) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("heapsched: Every called with non-positive interval %v", interval))
	}
	t := &Ticker{s: s, interval: interval, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.timer = t.s.After(t.interval, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.timer != nil {
		t.timer.Stop()
	}
}

// Len reports the number of pending events. With eager cancellation every
// heap entry is live, so this is the queue length.
func (s *Scheduler) Len() int {
	return len(s.queue)
}

// NextAt reports the virtual time of the earliest pending event, if any.
func (s *Scheduler) NextAt() (time.Duration, bool) {
	return s.peek()
}

// Step runs the next pending event, advancing the clock to its time.
func (s *Scheduler) Step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*event)
	s.now = ev.at
	ev.fired = true
	ev.fn()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.stopped = false
	for !s.stopped {
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Stop aborts a Run or RunUntil loop after the current event returns.
func (s *Scheduler) Stop() {
	s.stopped = true
}

func (s *Scheduler) peek() (time.Duration, bool) {
	if s.queue.Len() == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// eventHeap orders events by (time, sequence) for deterministic firing.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
