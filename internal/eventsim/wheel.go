package eventsim

import (
	"container/heap"
	"math/bits"
	"time"
)

// Wheel geometry: 256 slots of 2^20 ns ≈ 1.05 ms each, a sliding window of
// ≈268 ms of virtual time. Simulation hot-path events (client submit costs,
// matching costs, poll ticks, consensus rounds) land inside the window;
// coarse events (PoW intervals, drain deadlines) wait in the overflow heap
// and cascade in as the clock approaches them.
const (
	slotShift  = 20
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
	occWords   = wheelSlots / 64
)

// Event locations, tracked so cancellation can remove an event from
// whichever structure currently holds it.
const (
	locNone int8 = iota
	locSlot
	locOverflow
	locDrain
)

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
	// gen invalidates Timer handles when the struct is recycled.
	gen       uint32
	loc       int8
	cancelled bool
	// slot is the wheel bucket index when loc == locSlot.
	slot int32
	// index is the position inside the slot slice or overflow heap.
	index int32
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// wheel is the scheduler's event store: the bucketed near-future window, the
// far-future overflow heap, the sorted drain buffer for the bucket currently
// being fired, and the freelist of recycled event structs.
type wheel struct {
	// start is the absolute slot number of the window's lower edge,
	// always floor(now / slotWidth); buckets cover absolute slots
	// [start, start+wheelSlots).
	start int64
	slots [wheelSlots][]*event
	// occ is a 256-bit occupancy bitmap over the buckets, so finding the
	// next non-empty bucket is a handful of word scans.
	occ [occWords]uint64
	// count is the number of events resident in buckets (not drain or
	// overflow).
	count int

	overflow overflowHeap

	// drain holds the events of one absolute slot (drainAbs), sorted by
	// (at, seq); drainIdx is the next event to fire. drainLoaded reports
	// whether a slot is currently loaded.
	drain      []*event
	drainIdx   int
	drainAbs   int64
	drainLoaded bool

	free []*event
}

func absSlot(t time.Duration) int64 {
	return int64(t) >> slotShift
}

func (w *wheel) alloc() *event {
	if n := len(w.free); n > 0 {
		ev := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		return ev
	}
	return &event{}
}

// release recycles an event struct. Bumping gen turns any outstanding Timer
// handle inert; dropping fn releases the callback's captures to the GC.
func (w *wheel) release(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.loc = locNone
	ev.cancelled = false
	w.free = append(w.free, ev)
}

// place files a live event into the drain buffer, a wheel bucket, or the
// overflow heap. It upholds the ordering invariant from every call site:
// if the event sorts before the currently loaded drain slot, the drain is
// unloaded first so the bucket scan rediscovers both in order.
func (w *wheel) place(ev *event) {
	abs := absSlot(ev.at)
	if w.drainLoaded {
		if abs == w.drainAbs {
			w.insertDrain(ev)
			return
		}
		if abs < w.drainAbs {
			w.unloadDrain()
		}
	}
	if abs >= w.start+wheelSlots {
		ev.loc = locOverflow
		heap.Push(&w.overflow, ev)
		return
	}
	w.pushSlot(abs, ev)
}

func (w *wheel) pushSlot(abs int64, ev *event) {
	k := int32(abs & wheelMask)
	ev.loc = locSlot
	ev.slot = k
	ev.index = int32(len(w.slots[k]))
	w.slots[k] = append(w.slots[k], ev)
	w.occ[k>>6] |= 1 << (uint(k) & 63)
	w.count++
}

// remove takes a live event out of whichever structure holds it. Bucket
// removal is a swap-delete (buckets are unsorted); overflow removal is an
// indexed heap.Remove; drain events are tombstoned and recycled when the
// drain pointer passes them (the sorted buffer cannot be compacted cheaply).
func (w *wheel) remove(ev *event) {
	switch ev.loc {
	case locSlot:
		k := ev.slot
		sl := w.slots[k]
		last := len(sl) - 1
		moved := sl[last]
		sl[ev.index] = moved
		moved.index = ev.index
		sl[last] = nil
		w.slots[k] = sl[:last]
		if last == 0 {
			w.occ[k>>6] &^= 1 << (uint(k) & 63)
		}
		w.count--
		w.release(ev)
	case locOverflow:
		heap.Remove(&w.overflow, int(ev.index))
		w.release(ev)
	case locDrain:
		ev.cancelled = true
	}
}

// insertDrain files an event into the sorted drain buffer at its (at, seq)
// rank, at or after the current drain pointer.
func (w *wheel) insertDrain(ev *event) {
	lo, hi := w.drainIdx, len(w.drain)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(w.drain[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ev.loc = locDrain
	w.drain = append(w.drain, nil)
	copy(w.drain[lo+1:], w.drain[lo:])
	w.drain[lo] = ev
}

// unloadDrain pushes the unfired remainder of the drain buffer back into its
// bucket (or the overflow heap, for a pulled far event) so that an event
// scheduled before it can be discovered in order. This is rare: it only
// happens when a caller schedules an event earlier than the known next one.
func (w *wheel) unloadDrain() {
	backToOverflow := w.drainAbs >= w.start+wheelSlots
	for i := w.drainIdx; i < len(w.drain); i++ {
		ev := w.drain[i]
		if ev.cancelled {
			w.release(ev)
			continue
		}
		if backToOverflow {
			ev.loc = locOverflow
			heap.Push(&w.overflow, ev)
		} else {
			w.pushSlot(w.drainAbs, ev)
		}
	}
	w.clearDrain()
}

func (w *wheel) clearDrain() {
	for i := range w.drain {
		w.drain[i] = nil
	}
	w.drain = w.drain[:0]
	w.drainIdx = 0
	w.drainLoaded = false
}

// loadSlot moves one bucket's events into the drain buffer and sorts them by
// (at, seq).
func (w *wheel) loadSlot(abs int64) {
	k := abs & wheelMask
	sl := w.slots[k]
	w.drain = append(w.drain[:0], sl...)
	for i := range sl {
		sl[i] = nil
	}
	w.slots[k] = sl[:0]
	w.occ[k>>6] &^= 1 << (uint(k) & 63)
	w.count -= len(w.drain)
	w.drainIdx = 0
	w.drainAbs = abs
	w.drainLoaded = true
	sortEvents(w.drain)
	for _, ev := range w.drain {
		ev.loc = locDrain
	}
}

// next returns the earliest live event without consuming it, loading the
// drain buffer as needed. It returns nil when no events remain.
func (w *wheel) next() *event {
	for {
		for w.drainIdx < len(w.drain) {
			ev := w.drain[w.drainIdx]
			if ev.cancelled {
				w.drain[w.drainIdx] = nil
				w.drainIdx++
				w.release(ev)
				continue
			}
			return ev
		}
		if w.drainLoaded {
			w.clearDrain()
		}
		if w.count > 0 {
			abs, ok := w.nextOccupied()
			if !ok {
				panic("eventsim: wheel count positive but no occupied bucket")
			}
			w.loadSlot(abs)
			continue
		}
		if len(w.overflow) > 0 {
			// The window ahead is empty, so the overflow head is the
			// global minimum: pull it as a singleton drain. Its
			// same-slot successors cascade in when the clock advances.
			ev := heap.Pop(&w.overflow).(*event)
			ev.loc = locDrain
			w.drain = append(w.drain[:0], ev)
			w.drainIdx = 0
			w.drainAbs = absSlot(ev.at)
			w.drainLoaded = true
			continue
		}
		return nil
	}
}

// popNext consumes the event last returned by next.
func (w *wheel) popNext() {
	w.drain[w.drainIdx] = nil
	w.drainIdx++
}

// advanceTo slides the window's lower edge to the slot containing now and
// cascades overflow events that fall inside the new window into buckets.
// Amortized each event cascades at most once.
func (w *wheel) advanceTo(now time.Duration) {
	ns := absSlot(now)
	if ns <= w.start {
		return
	}
	w.start = ns
	horizon := (ns + wheelSlots) << slotShift
	for len(w.overflow) > 0 && int64(w.overflow[0].at) < horizon {
		ev := heap.Pop(&w.overflow).(*event)
		w.place(ev)
	}
}

// nextOccupied scans the occupancy bitmap for the first non-empty bucket at
// or after the window's lower edge, wrapping across the 256-slot circle.
func (w *wheel) nextOccupied() (int64, bool) {
	start := int(w.start & wheelMask)
	w0 := start >> 6
	low := uint64(1)<<uint(start&63) - 1
	word := w.occ[w0] &^ low
	for k := 0; k < occWords; k++ {
		wi := (w0 + k) & (occWords - 1)
		if k > 0 {
			word = w.occ[wi]
		}
		if word != 0 {
			b := wi<<6 + bits.TrailingZeros64(word)
			rel := (b - start) & wheelMask
			return w.start + int64(rel), true
		}
	}
	if word = w.occ[w0] & low; word != 0 {
		b := w0<<6 + bits.TrailingZeros64(word)
		rel := (b - start) & wheelMask
		return w.start + int64(rel), true
	}
	return 0, false
}

// sortEvents orders a bucket by (at, seq) without allocating: insertion sort
// for the common small/nearly-sorted case (buckets fill in sequence order,
// so same-instant bursts arrive already sorted), heapsort above that for a
// guaranteed O(n log n) worst case.
func sortEvents(evs []*event) {
	if len(evs) <= 24 {
		insertionSortEvents(evs)
		return
	}
	if sortedEvents(evs) {
		return
	}
	heapsortEvents(evs)
}

func sortedEvents(evs []*event) bool {
	for i := 1; i < len(evs); i++ {
		if eventLess(evs[i], evs[i-1]) {
			return false
		}
	}
	return true
}

func insertionSortEvents(evs []*event) {
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i - 1
		for j >= 0 && eventLess(ev, evs[j]) {
			evs[j+1] = evs[j]
			j--
		}
		evs[j+1] = ev
	}
}

func heapsortEvents(evs []*event) {
	n := len(evs)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownEvents(evs, i, n)
	}
	for i := n - 1; i > 0; i-- {
		evs[0], evs[i] = evs[i], evs[0]
		siftDownEvents(evs, 0, i)
	}
}

func siftDownEvents(evs []*event, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && eventLess(evs[child], evs[child+1]) {
			child++
		}
		if !eventLess(evs[root], evs[child]) {
			return
		}
		evs[root], evs[child] = evs[child], evs[root]
		root = child
	}
}

// overflowHeap is an indexed min-heap over (at, seq) for events beyond the
// wheel window. The maintained index field makes cancellation a true
// O(log n) heap.Remove instead of a lazy tombstone.
type overflowHeap []*event

func (h overflowHeap) Len() int { return len(h) }

func (h overflowHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }

func (h overflowHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}

func (h *overflowHeap) Push(x any) {
	ev := x.(*event)
	ev.index = int32(len(*h))
	*h = append(*h, ev)
}

func (h *overflowHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
