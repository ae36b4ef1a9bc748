// Package eventsim provides a deterministic discrete-event scheduler with a
// virtual clock. It is the timing substrate for every simulated blockchain in
// this repository: consensus rounds, network message delivery, block
// production and workload injection are all events scheduled on a single
// virtual timeline, so a "300 second" evaluation completes in milliseconds of
// wall-clock time and is exactly reproducible.
//
// The scheduler is a hierarchical timer wheel: events within a sliding
// ~268 ms window land in one of 256 ≈1.05 ms buckets, far-future events wait
// in an indexed overflow heap and cascade into the wheel as the clock
// approaches them, and fired or cancelled event structs are recycled through
// a freelist so steady-state scheduling does not allocate. See DESIGN.md
// ("Scheduler internals") for the layout and the determinism argument.
package eventsim

import (
	"fmt"
	"time"
)

// Scheduler is a discrete-event scheduler. The zero value is ready to use.
// Events scheduled for the same virtual instant fire in the order they were
// scheduled, which keeps runs deterministic.
//
// Scheduler is not safe for concurrent use; a simulation is single-threaded
// by design (determinism is the point).
type Scheduler struct {
	now time.Duration
	seq uint64
	// live counts pending (non-cancelled) events so Len is O(1).
	live int
	// stopped aborts Run loops early when set by Stop.
	stopped bool

	wheel wheel
}

// New returns an empty scheduler whose clock reads zero.
func New() *Scheduler {
	return &Scheduler{}
}

// Now reports the current virtual time (elapsed since simulation start).
func (s *Scheduler) Now() time.Duration {
	return s.now
}

// Timer is a handle to a scheduled event; Stop cancels it. Timer is a value:
// it can be copied, stored in structs and compared against its zero value
// without allocating. A generation counter makes handles to fired or
// recycled events safely inert.
type Timer struct {
	s   *Scheduler
	ev  *event
	gen uint32
}

// Stop cancels the timer's event if it has not fired yet. It reports whether
// the call prevented the event from firing. Cancellation removes the event
// from the scheduler immediately (swap-delete from its wheel bucket or
// indexed heap.Remove from the overflow heap), so cancelled events cost
// nothing at fire time.
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.cancelled {
		return false
	}
	t.s.cancel(t.ev)
	return true
}

// Pending reports whether the timer's event is still scheduled: not yet
// fired and not cancelled. The zero Timer is not pending.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a simulation bug, not a recoverable condition.
func (s *Scheduler) At(t time.Duration, fn func()) Timer {
	seq := s.seq
	s.seq++
	return s.schedule(t, seq, fn)
}

// After schedules fn to run d after the current virtual time. Negative delays
// are clamped to zero.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// ReserveSeq reserves n consecutive tie-break sequence numbers and returns
// the first. Same-instant events fire in sequence order, so a caller that
// wants to schedule events lazily — yet have them fire exactly as if they
// had all been scheduled up front — reserves their sequence numbers first
// and later attaches each one with AtSeq. The engine's streaming transaction
// injection depends on this to stay byte-identical with eager scheduling.
func (s *Scheduler) ReserveSeq(n int) uint64 {
	if n < 0 {
		panic("eventsim: ReserveSeq called with negative count")
	}
	base := s.seq
	s.seq += uint64(n)
	return base
}

// AtSeq schedules fn at absolute virtual time t with an explicitly reserved
// sequence number (from ReserveSeq). The (time, sequence) pair decides
// firing order, so a reserved sequence lets a late-scheduled event keep the
// tie-break rank of its reservation. Reusing a sequence number for two live
// events is a bug; the scheduler does not police it.
func (s *Scheduler) AtSeq(t time.Duration, seq uint64, fn func()) Timer {
	if seq >= s.seq {
		panic("eventsim: AtSeq called with unreserved sequence number")
	}
	return s.schedule(t, seq, fn)
}

func (s *Scheduler) schedule(t time.Duration, seq uint64, fn func()) Timer {
	if fn == nil {
		panic("eventsim: At called with nil function")
	}
	if t < s.now {
		panic(fmt.Sprintf("eventsim: scheduling event at %v before now %v", t, s.now))
	}
	ev := s.wheel.alloc()
	ev.at = t
	ev.seq = seq
	ev.fn = fn
	s.wheel.place(ev)
	s.live++
	return Timer{s: s, ev: ev, gen: ev.gen}
}

// cancel removes a live event from whichever structure holds it.
func (s *Scheduler) cancel(ev *event) {
	s.live--
	s.wheel.remove(ev)
}

// Ticker repeatedly fires fn at a fixed virtual interval until stopped.
type Ticker struct {
	s        *Scheduler
	interval time.Duration
	fn       func()
	// fire is the single rearming closure, bound once so steady-state
	// ticking does not allocate.
	fire    func()
	timer   Timer
	stopped bool
}

// Every schedules fn to run every interval, with the first firing one
// interval from now. It panics if interval is not positive.
func (s *Scheduler) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("eventsim: Every called with non-positive interval %v", interval))
	}
	t := &Ticker{s: s, interval: interval, fn: fn}
	t.fire = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.timer = t.s.After(t.interval, t.fire)
		}
	}
	t.timer = s.After(interval, t.fire)
	return t
}

// Stop cancels future firings. It is safe to call from within the ticker's
// own callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}

// Len reports the number of pending (non-cancelled) events. It is O(1): the
// scheduler maintains a live-event counter.
func (s *Scheduler) Len() int {
	return s.live
}

// NextAt reports the virtual time of the earliest pending event, if any.
// It lets callers drain bounded follow-up work (e.g. in-flight matching)
// without guessing a polling granularity.
func (s *Scheduler) NextAt() (time.Duration, bool) {
	if ev := s.wheel.next(); ev != nil {
		return ev.at, true
	}
	return 0, false
}

// Step runs the next pending event, advancing the clock to its time. It
// reports false when no events remain.
func (s *Scheduler) Step() bool {
	ev := s.wheel.next()
	if ev == nil {
		return false
	}
	s.fire(ev)
	return true
}

// fire consumes the event at the head of the drain buffer, advances the
// clock and window, recycles the event struct, and runs its callback. The
// struct is released before the callback so the callback's own scheduling
// can reuse it; the callback function value was copied out first.
func (s *Scheduler) fire(ev *event) {
	s.wheel.popNext()
	s.now = ev.at
	s.wheel.advanceTo(s.now)
	fn := ev.fn
	s.live--
	s.wheel.release(ev)
	fn()
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline (if it is ahead of the last event). Events scheduled beyond
// the deadline stay queued.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.stopped = false
	for !s.stopped {
		ev := s.wheel.next()
		if ev == nil || ev.at > deadline {
			break
		}
		s.fire(ev)
	}
	if s.now < deadline {
		s.now = deadline
		s.wheel.advanceTo(s.now)
	}
}

// Stop aborts a Run or RunUntil loop after the current event returns.
func (s *Scheduler) Stop() {
	s.stopped = true
}

// AtKey forwards to At and ignores the key. It is not part of Sched: the
// benchmark's tracing decorator is its only caller, and a later change to the
// benchmark removes it. Product code must not call it.
func (s *Scheduler) AtKey(_ uint64, t time.Duration, fn func()) Timer { return s.At(t, fn) }

// AfterKey forwards to After and ignores the key. Like AtKey, it exists only
// for the benchmark's tracing decorator until a later benchmark change.
func (s *Scheduler) AfterKey(_ uint64, d time.Duration, fn func()) Timer { return s.After(d, fn) }

// AtKeySeq forwards to AtSeq and ignores the key. Like AtKey, it exists only
// for the benchmark's tracing decorator until a later benchmark change.
func (s *Scheduler) AtKeySeq(_ uint64, t time.Duration, seq uint64, fn func()) Timer {
	return s.AtSeq(t, seq, fn)
}

// EveryKey forwards to Every and ignores the key. Like AtKey, it exists only
// for the benchmark's tracing decorator until a later benchmark change.
func (s *Scheduler) EveryKey(_ uint64, interval time.Duration, fn func()) *Ticker {
	return s.Every(interval, fn)
}
