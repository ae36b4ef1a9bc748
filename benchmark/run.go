package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime"
	"time"

	"hammer"
	"hammer/internal/chain"
	"hammer/internal/chaos"
	"hammer/internal/core"
	"hammer/internal/metrics"
	"hammer/internal/sign"
	"hammer/internal/store/pagedstate"
	"hammer/internal/taskproc"
	txgen "hammer/internal/workload"
)

// bench runs iterations of one workload. An iteration is the whole batch job
// a user would run: chain construction, account setup, prepare, execute,
// analyze and (where the workload has one) the report phase, for every spec
// of the workload in order. The load is closed-loop by construction: one
// process, one simulation goroutine, runs strictly one after another.
type bench struct {
	workload workload
	seed     int64
	// out holds the paged-state files and the trace.
	out string
	// tr is nil for the timed iterations: no decorators, no spans.
	tr *tracer
	// probeHeap makes every run end with a collection and a reading of the
	// heap still live; only the untimed memory pass sets it.
	probeHeap bool
	// dirs are paged-state directories to remove outside the timed region.
	dirs []string
}

// tally is what one iteration's runs produced, summed.
type tally struct {
	submitted, committed, aborted, rejected, timedOut int
	// unaccounted counts transactions the framework lost track of: tracked
	// but neither committed, aborted nor timed out when the run ended. It is
	// the benchmark's failed-operation count and must be zero.
	unaccounted int
	retried     int
	stranded    int
	viewChanges int
	faultEvents int
	recovery    int // virtual seconds from heal to recovered, summed
	virtual     time.Duration
	prep        time.Duration
	// simTime and latency feed the simulated TPS and p95 aggregates.
	simTime    time.Duration
	p95ByCount time.Duration
	// digest covers every run's report and simulated counts; it must not
	// move between iterations, traced or not.
	digest hash.Hash
	// failures are output checks that did not hold.
	failures []string
	// liveHeap is the largest heap, in bytes, that a run of the iteration
	// still held when it ended: chain, blocks, records and report.
	liveHeap uint64

	// Filled on traced iterations only.
	blocks, blockTxs    int
	submitRejects       int
	generated, signed   int
	tracked, matched    int
	bloomFiltered       int
	indexResizes        int
	records, rowsStaged int
	paged               pagedstate.Stats
}

func (t *tally) simDigest() string { return hex.EncodeToString(t.digest.Sum(nil)) }

func (t *tally) failf(format string, args ...any) {
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

func (b *bench) iteration(scale int) (*tally, error) {
	t := &tally{digest: sha256.New()}
	b.tr.begin(opIteration)
	defer b.tr.end()
	for i, sp := range b.workload.specs(scale) {
		if b.tr != nil {
			b.tr.run = i + 1
		}
		if err := b.run(sp, t); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", b.workload.name, sp.name, err)
		}
	}
	return t, nil
}

// cleanup removes what iterations left on disk; callers keep it outside the
// timed region.
func (b *bench) cleanup() {
	for _, dir := range b.dirs {
		os.RemoveAll(dir)
	}
	b.dirs = b.dirs[:0]
}

// stateFactory is the chain.State seam: the paged store for paged specs, the
// in-RAM state otherwise — bare when untraced, behind the timing decorator
// when traced. The seam has no error path, so a failed Open is parked in
// *errp for the caller.
func (b *bench) stateFactory(paged bool, stores *[]*pagedstate.Store, accounts int, errp *error) chain.StateFactory {
	if !paged && b.tr == nil {
		return nil
	}
	return func() *chain.State {
		var backend chain.StateBackend = chain.NewState()
		if paged {
			b.tr.begin(opStateOpen)
			st, err := b.openStore(accounts)
			b.tr.end()
			if err != nil {
				*errp = err
			} else {
				*stores = append(*stores, st)
				backend = st
			}
		}
		if b.tr != nil {
			backend = &tracedState{inner: backend, tr: b.tr}
		}
		return chain.NewStateOn(backend)
	}
}

func (b *bench) openStore(accounts int) (*pagedstate.Store, error) {
	dir, err := os.MkdirTemp(b.out, "state-")
	if err != nil {
		return nil, fmt.Errorf("paged state dir: %w", err)
	}
	b.dirs = append(b.dirs, dir)
	return pagedstate.Open(pagedstate.Config{
		Dir:        dir,
		CacheBytes: pagedCacheBytes,
		// SmallBank holds a checking and a savings key per account.
		ExpectedKeys: 4 * accounts,
	})
}

func (b *bench) run(sp spec, t *tally) (err error) {
	tr := b.tr
	wheel := hammer.NewScheduler()
	var chainSched, coreSched hammer.Sched = wheel, wheel
	if tr != nil {
		chainSched = &tracedSched{Scheduler: wheel, tr: tr, ev: opChainsEvent}
		coreSched = &tracedSched{Scheduler: wheel, tr: tr, ev: opCoreEvent}
	}

	var stores []*pagedstate.Store
	var stateErr error
	// Close is idempotent; the success path closes inside a span below.
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	tr.begin(opChainsNew)
	sut := sp.newChain(chainSched, b.stateFactory(sp.paged, &stores, sp.accounts, &stateErr), b.seed)
	tr.end()
	if stateErr != nil {
		return stateErr
	}

	cfg := core.DefaultConfig()
	cfg.Seed, cfg.Workload.Seed = b.seed, b.seed
	cfg.Workload.Accounts = sp.accounts
	cfg.Control = txgen.Constant(sp.rate, sp.window, time.Second)
	cfg.SignMode = core.SignOff
	cfg.SignWorkers = signWorkers
	if sp.source != nil {
		cfg.Source = sp.source(b.seed)
		cfg.Contract = hammer.SmallBank()
	}
	if sp.tune != nil {
		sp.tune(&cfg)
	}

	// Fault at one third and heal at two thirds of the window.
	faultSec := int(sp.window/time.Second) / 3
	healSec := 2 * int(sp.window/time.Second) / 3
	var inj *chaos.Injector
	if sp.faults != nil {
		nf, ok := sut.(chaos.NodeFaulter)
		if !ok {
			return fmt.Errorf("chain %s exposes no liveness hooks", sut.Name())
		}
		scen := sp.faults(time.Duration(faultSec)*time.Second, time.Duration(healSec)*time.Second)
		if inj, err = chaos.NewInjector(chainSched, nf, scen, cfg.Metrics); err != nil {
			return err
		}
	}
	var measureStart time.Duration
	cfg.OnMeasureStart = func(start time.Duration) {
		measureStart = start
		if inj != nil {
			inj.Arm(start)
		}
	}

	target := sut
	var tc *tracedChain
	if tr != nil {
		tc = &tracedChain{Blockchain: sut, tr: tr}
		target = tc
	}
	tr.begin(opCoreNew)
	eng, err := core.New(coreSched, target, cfg)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin(opCoreRun)
	res, err := eng.Run(context.Background())
	tr.end()
	if err != nil {
		return err
	}

	if sp.report {
		tr.begin(opVisualize)
		viz, err := core.Visualize(res.Records)
		tr.end()
		if err != nil {
			return err
		}
		t.rowsStaged += viz.RowsStaged
		if viz.RowsStaged != len(res.Records) {
			t.failf("%s: visualization staged %d of %d records", sp.name, viz.RowsStaged, len(res.Records))
		}
		tr.begin(opVerify)
		audit, err := core.VerifyAgainstAuditLog(res.Records, sut)
		tr.end()
		if err != nil {
			return err
		}
		if !audit.Consistent() {
			t.failf("%s: records disagree with the audit log: %+v", sp.name, *audit)
		}
	}

	for _, st := range stores {
		stats := st.Stats()
		tr.begin(opStateClose)
		err := st.Close()
		tr.end()
		if err != nil {
			return err
		}
		t.addPaged(stats)
	}

	rep := res.Report
	total := cfg.Control.Total()
	if res.SetupCommitted != sp.accounts {
		t.failf("%s: %d of %d accounts created", sp.name, res.SetupCommitted, sp.accounts)
	}
	if rep.Submitted != total || res.Submitted != total {
		t.failf("%s: control sequence holds %d tx, engine submitted %d, report counts %d", sp.name, total, res.Submitted, rep.Submitted)
	}
	t.submitted += total
	t.committed += rep.Committed
	t.aborted += rep.Aborted
	t.rejected += rep.Rejected
	t.timedOut += rep.TimedOut
	t.unaccounted += rep.Unmatched
	t.retried += res.Retried
	t.virtual += res.VirtualDuration
	t.prep += res.PrepDuration
	t.simTime += rep.Duration
	t.p95ByCount += rep.P95Latency * time.Duration(rep.Committed)

	stranded, viewChanges := 0, 0
	if s, ok := sut.(interface{ Stranded() int }); ok {
		stranded = s.Stranded()
	}
	if v, ok := sut.(interface{ ViewChanges() int }); ok {
		viewChanges = v.ViewChanges()
	}
	t.stranded += stranded
	t.viewChanges += viewChanges
	if inj != nil {
		t.faultEvents += len(inj.Applied())
	}
	if sp.recovery {
		rec := chaos.AnalyzeRecovery(rep.TPSSeries, faultSec, healSec, 0.7)
		if rec.Recovered {
			t.recovery += rec.RecoverySeconds
		} else {
			t.failf("%s: throughput did not recover after the heal (baseline %.0f, dip %.0f TPS)", sp.name, rec.BaselineTPS, rec.DipTPS)
		}
	}
	fmt.Fprintf(t.digest, "%s %d %d %d %d %d %d %v %v %v %v %d %d %d\n", sp.name,
		rep.Submitted, rep.Committed, rep.Aborted, rep.TimedOut, rep.Unmatched, rep.Rejected,
		rep.Throughput, rep.AvgLatency, rep.P95Latency, rep.TPSSeries,
		res.Retried, stranded, viewChanges)

	if b.probeHeap {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		t.liveHeap = max(t.liveHeap, m.HeapAlloc)
		runtime.KeepAlive(sut)
		runtime.KeepAlive(eng)
		runtime.KeepAlive(res)
	}
	if tr != nil {
		t.submitRejects += tc.rejects
		return b.replay(sp, cfg, sut, res, measureStart, t)
	}
	return nil
}

func (t *tally) addPaged(s pagedstate.Stats) {
	t.paged.Evictions += s.Evictions
	t.paged.WALBytes += s.WALBytes
	t.paged.WALFlushes += s.WALFlushes
	t.paged.Checkpoints += s.Checkpoints
	t.paged.Compactions += s.Compactions
	t.paged.PagesAllocated += s.PagesAllocated
	t.paged.BloomNegatives += s.BloomNegatives
	t.paged.CacheHits += s.CacheHits
	t.paged.CacheMisses += s.CacheMisses
}

// replay times the layers sealed inside Engine.Run by running them again on
// the same inputs: the generator's whole output, the ID hash, the signing
// pool, a fresh task processor fed the run's records and blocks, and the
// analysis. The spans are outside spans — they stand in for engine time
// that no decorator can see, and do not count toward the iteration's wall.
func (b *bench) replay(sp spec, cfg core.Config, sut hammer.Blockchain, res *core.Result, measureStart time.Duration, t *tally) error {
	tr := b.tr
	var src core.TxSource
	if sp.source != nil {
		src = sp.source(b.seed)
	} else {
		gen, err := txgen.NewGenerator(cfg.Workload)
		if err != nil {
			return err
		}
		src = gen
	}
	total := cfg.Control.Total()

	// The loop Engine.prepare runs, client label included.
	tr.begin(opGenerate)
	txs := src.SetupTxs()
	setup := len(txs)
	for i := 0; i < total; i++ {
		txs = append(txs, src.Next(fmt.Sprintf("client-%d", i%cfg.Clients), "server-0"))
	}
	tr.end()
	t.generated += len(txs)

	tr.begin(opComputeID)
	for _, tx := range txs {
		tx.ComputeID()
	}
	tr.end()

	if cfg.SignMode == core.SignAsync {
		signer, err := sign.NewSigner(b.seed)
		if err != nil {
			return err
		}
		tr.begin(opSign)
		err = sign.SignAsync(txs[setup:], signer, signWorkers)
		tr.end()
		if err != nil {
			return err
		}
		t.signed += total
	}

	tr.begin(opTrack)
	proc := taskproc.NewProcessor(total)
	for i := range res.Records {
		rec := res.Records[i]
		rec.Status, rec.EndTime, rec.Shard, rec.Height = chain.StatusPending, 0, 0, 0
		proc.Track(rec)
	}
	tr.end()

	// Blocks sealed during account setup never reach the engine's matcher.
	tr.begin(opBookkeeping)
	var measured []*chain.Block
	for shard := 0; shard < sut.Shards(); shard++ {
		for h := uint64(1); h <= sut.Height(shard); h++ {
			blk, _ := sut.BlockAt(shard, h)
			t.blocks++
			t.blockTxs += len(blk.Txs)
			if blk.Timestamp > measureStart {
				measured = append(measured, blk)
			}
		}
	}
	tr.end()

	tr.begin(opOnBlock)
	for _, blk := range measured {
		t.matched += proc.OnBlock(blk)
	}
	tr.end()
	stats := proc.Stats()
	t.tracked += stats.Tracked
	t.bloomFiltered += stats.BloomFiltered
	t.indexResizes += stats.IndexResizes

	rejected := res.Rejected
	if cfg.TrackRejected {
		rejected = 0
	}
	tr.begin(opAnalyze)
	metrics.Analyze(sut.Name(), res.Records, rejected)
	tr.end()
	t.records += len(res.Records)
	return nil
}
