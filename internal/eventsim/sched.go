package eventsim

import "time"

// Sched is the scheduling surface engine, chain and network code program
// against. Scheduler, the timer wheel, is its one implementation; the
// benchmark's tracing decorator wraps a *Scheduler and implements Sched so it
// can time every callback without touching call sites.
type Sched interface {
	// Now reports the current virtual time.
	Now() time.Duration
	// At schedules fn at absolute virtual time t.
	At(t time.Duration, fn func()) Timer
	// After schedules fn d after now (negative d clamps to zero).
	After(d time.Duration, fn func()) Timer
	// ReserveSeq reserves n consecutive tie-break sequence numbers; AtSeq
	// attaches events to reserved numbers later.
	ReserveSeq(n int) uint64
	AtSeq(t time.Duration, seq uint64, fn func()) Timer
	// Every fires fn at a fixed interval until the ticker is stopped.
	Every(interval time.Duration, fn func()) *Ticker
	// Len counts pending events; NextAt peeks the earliest one.
	Len() int
	NextAt() (time.Duration, bool)
	// Step fires the next event; Run and RunUntil drive the loop; Stop
	// aborts a running loop after the current callback returns.
	Step() bool
	Run()
	RunUntil(deadline time.Duration)
	Stop()
}

var _ Sched = (*Scheduler)(nil)
