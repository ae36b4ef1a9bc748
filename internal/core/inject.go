package core

import (
	"time"

	"hammer/internal/chain"
)

// sliceInjector paces one control-sequence slice's transactions with a single
// self-rearming scheduler event instead of one event per transaction, so the
// resident event count during a run is O(slices + in-flight) rather than
// O(total transactions). Determinism is preserved exactly: the injector's
// sequence numbers were reserved up front (Scheduler.ReserveSeq) in the same
// order eager scheduling would have consumed them, so every injection fires
// at the identical (time, sequence) rank and byte-identical output follows.
type sliceInjector struct {
	e   *Engine
	txs []*chain.Transaction
	// base is the global index of txs[0], preserving the round-robin client
	// assignment of the eager scheme.
	base  int
	next  int
	start time.Duration
	gap   time.Duration
	// seq is the reserved tie-break sequence of txs[0]; txs[j] owns seq+j.
	seq uint64
	// fire is bound once so rearming does not allocate a closure per event.
	fire func()
}

// step dispatches the due transaction, then either dispatches same-instant
// successors inline (a sub-millisecond gap rounds to zero) or rearms the
// pacing event at the next transaction's reserved (time, sequence) slot.
// Inline dispatch is order-equivalent to separate events: the reserved
// sequences are consecutive, so no other event can fire between them.
func (si *sliceInjector) step() {
	e := si.e
	now := e.sched.Now()
	for {
		e.dispatch(si.txs[si.next], (si.base+si.next)%len(e.clients))
		si.next++
		if si.next >= len(si.txs) {
			return
		}
		at := si.start + time.Duration(si.next)*si.gap
		if at > now {
			e.sched.AtSeq(at, si.seq+uint64(si.next), si.fire)
			return
		}
	}
}
