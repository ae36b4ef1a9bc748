package main

// perLayer lists every metric a traced run reports, layer by layer. Every
// workload emits all of them; a layer that does not run reports zeros
// (sign.* and pagedstate.* outside their workloads, report.* without a
// report phase, chaos.* without faults). README.md says which end-to-end
// metric each one should move.
var perLayer = []metricDef{
	{"workload.txs", "count"},
	{"workload.busy_s", "s"},
	{"chain.ids", "count"},
	{"chain.id_busy_s", "s"},
	{"sign.txs", "count"},
	{"sign.busy_s", "s"},
	{"sign.tx_per_s", "tx/s"},
	{"core.events", "count"},
	{"core.self_s", "s"},
	{"core.submitted", "count"},
	{"core.retried", "count"},
	{"core.prep_s", "s"},
	{"eventsim.events", "count"},
	{"eventsim.self_s", "s"},
	{"eventsim.events_per_tx", "1/tx"},
	{"eventsim.virtual_s", "s"},
	{"chains.events", "count"},
	{"chains.self_s", "s"},
	{"chains.submits", "count"},
	{"chains.submit_busy_s", "s"},
	{"chains.rejects", "count"},
	{"chains.blocks", "count"},
	{"chains.txs_per_block", "tx"},
	{"chains.committed", "count"},
	{"chains.aborted", "count"},
	{"chains.timed_out", "count"},
	{"chains.view_changes", "count"},
	{"chains.stranded", "count"},
	{"chains.sim_tps", "tx/s"},
	{"chains.sim_p95_latency_s", "s"},
	{"state.gets", "count"},
	{"state.sets", "count"},
	{"state.busy_s", "s"},
	{"pagedstate.cache_hit_ratio", "ratio"},
	{"pagedstate.evictions", "count"},
	{"pagedstate.wal_bytes", "B"},
	{"pagedstate.wal_flushes", "count"},
	{"pagedstate.checkpoints", "count"},
	{"pagedstate.compactions", "count"},
	{"pagedstate.pages_allocated", "count"},
	{"pagedstate.bloom_negatives", "count"},
	{"taskproc.tracked", "count"},
	{"taskproc.matched", "count"},
	{"taskproc.busy_s", "s"},
	{"taskproc.bloom_filtered", "count"},
	{"taskproc.index_resizes", "count"},
	{"metrics.records", "count"},
	{"metrics.busy_s", "s"},
	{"report.rows_staged", "count"},
	{"report.visualize_busy_s", "s"},
	{"report.verify_busy_s", "s"},
	{"chaos.fault_events", "count"},
	{"chaos.recovery_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.spans", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_s", "s"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics turns one traced iteration into the per-layer metrics.
// untraced is an untraced iteration of the same process: the base of the
// overhead ratio, and the source of the collector's figures, which the
// tracer's own allocations would otherwise inflate.
func layerMetrics(tr *tracer, s, untraced sample) map[string]float64 {
	t := s.tally
	busy := func(o op) float64 { return tr.stat[o].busy.Seconds() }
	self := func(o op) float64 { return tr.stat[o].self.Seconds() }
	count := func(o op) float64 { return float64(tr.stat[o].count) }
	submitted := float64(t.submitted)
	events := count(opChainsEvent) + count(opCoreEvent)
	wall := tr.wall().Seconds()

	// What Engine.Run spends outside the scheduler loop and the calls it
	// makes through decorators is sealed: generation, hashing or signing,
	// analysis. The replays stand in for it; signing hashes the ID itself.
	sealed := busy(opGenerate) + busy(opAnalyze)
	if t.signed > 0 {
		sealed += busy(opSign)
	} else {
		sealed += busy(opComputeID)
	}
	attributed := sealed
	for o := opChainsNew; o < opGenerate; o++ {
		if o != opCoreRun {
			attributed += self(o)
		}
	}

	return map[string]float64{
		"workload.txs":           float64(t.generated),
		"workload.busy_s":        busy(opGenerate),
		"chain.ids":              float64(t.generated),
		"chain.id_busy_s":        busy(opComputeID),
		"sign.txs":               float64(t.signed),
		"sign.busy_s":            busy(opSign),
		"sign.tx_per_s":          ratio(float64(t.signed), busy(opSign)),
		"core.events":            count(opCoreEvent),
		"core.self_s":            self(opCoreEvent) + self(opCoreNew),
		"core.submitted":         submitted,
		"core.retried":           float64(t.retried),
		"core.prep_s":            t.prep.Seconds(),
		"eventsim.events":        events,
		"eventsim.self_s":        self(opRunLoop),
		"eventsim.virtual_s":     t.virtual.Seconds(),
		"eventsim.events_per_tx": ratio(events, submitted),

		"chains.events":            count(opChainsEvent),
		"chains.self_s":            self(opChainsEvent) + self(opChainsNew) + self(opSubmit) + self(opHeight) + self(opBlockAt),
		"chains.submits":           count(opSubmit),
		"chains.submit_busy_s":     busy(opSubmit),
		"chains.rejects":           float64(t.submitRejects),
		"chains.blocks":            float64(t.blocks),
		"chains.txs_per_block":     ratio(float64(t.blockTxs), float64(t.blocks)),
		"chains.committed":         float64(t.committed),
		"chains.aborted":           float64(t.aborted),
		"chains.timed_out":         float64(t.timedOut),
		"chains.view_changes":      float64(t.viewChanges),
		"chains.stranded":          float64(t.stranded),
		"chains.sim_tps":           ratio(float64(t.committed), t.simTime.Seconds()),
		"chains.sim_p95_latency_s": ratio(t.p95ByCount.Seconds(), float64(t.committed)),

		"state.gets":   count(opStateGet),
		"state.sets":   count(opStateSet),
		"state.busy_s": busy(opStateGet) + busy(opStateSet) + busy(opStateOther) + busy(opStateOpen) + busy(opStateClose),

		"pagedstate.cache_hit_ratio": t.paged.HitRate(),
		"pagedstate.evictions":       float64(t.paged.Evictions),
		"pagedstate.wal_bytes":       float64(t.paged.WALBytes),
		"pagedstate.wal_flushes":     float64(t.paged.WALFlushes),
		"pagedstate.checkpoints":     float64(t.paged.Checkpoints),
		"pagedstate.compactions":     float64(t.paged.Compactions),
		"pagedstate.pages_allocated": float64(t.paged.PagesAllocated),
		"pagedstate.bloom_negatives": float64(t.paged.BloomNegatives),

		"taskproc.tracked":        float64(t.tracked),
		"taskproc.matched":        float64(t.matched),
		"taskproc.busy_s":         busy(opTrack) + busy(opOnBlock),
		"taskproc.bloom_filtered": float64(t.bloomFiltered),
		"taskproc.index_resizes":  float64(t.indexResizes),

		"metrics.records": float64(t.records),
		"metrics.busy_s":  busy(opAnalyze),

		"report.rows_staged":      float64(t.rowsStaged),
		"report.visualize_busy_s": busy(opVisualize),
		"report.verify_busy_s":    busy(opVerify),

		"chaos.fault_events": float64(t.faultEvents),
		"chaos.recovery_s":   float64(t.recovery),

		"runtime.gc_cycles":  float64(untraced.gcCycles),
		"runtime.gc_pause_s": untraced.gcPause.Seconds(),
		// Read before the first span was recorded.
		"runtime.peak_rss_mb": untraced.peakRSS / 1e6,

		"trace.spans":          float64(tr.spans),
		"trace.overhead_ratio": ratio(wall, untraced.wall.Seconds()),
		"trace.unattributed_s": wall - attributed,
	}
}
