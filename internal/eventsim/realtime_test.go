package eventsim

import (
	"testing"
	"time"
)

// TestRealtimeNoDrift checks the pacing loop tracks the absolute
// speed·elapsed mapping instead of accumulating per-slice sleep error: even
// with a callback that blocks the event loop for many slices, the virtual
// clock lands within one catch-up quantum of the wall clock once the loop
// resumes. A per-tick-sleep implementation lags by roughly the blocked
// duration per stall and never recovers.
func TestRealtimeNoDrift(t *testing.T) {
	s := New()
	const speed = 200.0
	// Block the loop mid-run: with absolute deadlines the following slices
	// collapse into one catch-up RunUntil rather than a permanent lag.
	s.After(20*time.Millisecond*speed/1000, func() { time.Sleep(30 * time.Millisecond) })
	rt := NewRealtime(s, speed)
	start := time.Now()
	rt.Start()
	time.Sleep(120 * time.Millisecond)

	var virt time.Duration
	var elapsed time.Duration
	rt.Do(func() {
		// Inside Do the clock has just been caught up to virtualNow, so
		// measure both sides under the same lock.
		elapsed = time.Since(start)
		virt = s.Now()
	})
	rt.Stop()

	want := time.Duration(float64(elapsed) * speed)
	diff := want - virt
	if diff < 0 {
		diff = -diff
	}
	// Allow generous slack for scheduler jitter on loaded CI hosts: 20 ms
	// of wall time at 200×. A drifting loop loses the full 30 ms stall
	// (6 s of virtual time at 200×), far outside this bound.
	if maxSkew := time.Duration(20 * float64(time.Millisecond) * speed); diff > maxSkew {
		t.Fatalf("virtual clock %v vs absolute mapping %v: skew %v exceeds %v", virt, want, diff, maxSkew)
	}
}
