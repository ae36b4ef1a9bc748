package experiments

import (
	"context"
	"fmt"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/fabric"
	"hammer/internal/core"
	"hammer/internal/eventsim"
	"hammer/internal/harness"
	"hammer/internal/workload"
)

// Fig10Result is one Fig 10 data point: Fabric throughput and latency at a
// given client/thread configuration.
type Fig10Result struct {
	Sweep      string // "threads" or "clients"
	Clients    int
	Threads    int
	Throughput float64
	AvgLatency time.Duration
	Committed  int
	Aborted    int
	Rejected   int
}

// String renders the row.
func (r Fig10Result) String() string {
	return fmt.Sprintf("%-7s clients=%d threads=%d  %7.1f TPS  latency %9v  (%d committed, %d aborted, %d rejected)",
		r.Sweep, r.Clients, r.Threads, r.Throughput, r.AvgLatency.Round(time.Millisecond),
		r.Committed, r.Aborted, r.Rejected)
}

// fig10Run describes one Fabric evaluation at the given concurrency.
func fig10Run(sweep string, clients, threads int, offeredPerClient float64, opts Options) harness.Run[Fig10Result] {
	return harness.Run[Fig10Result]{
		Name: fmt.Sprintf("fig10/%s clients=%d threads=%d", sweep, clients, threads),
		Seed: opts.Seed,
		Build: func(seed int64) (eventsim.Sched, chain.Blockchain, core.Config, error) {
			sched := eventsim.New()
			fcfg := fabric.DefaultConfig()
			// A deep admission queue lets backlog (and with it MVCC conflict
			// windows) grow with offered load, which is what produces the
			// client-count behaviour of Fig 10.
			fcfg.PendingCap = 2000
			bc := fabric.New(sched, fcfg)

			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.Workload.Accounts = opts.Accounts
			cfg.Workload.Seed = seed
			cfg.Clients = clients
			cfg.Threads = threads
			cfg.SignMode = core.SignOff
			// 7 ms of client CPU per submission makes two threads on a 2-vCPU
			// client machine the sweet spot: one thread cannot keep Fabric fed,
			// and beyond two the context-switch overhead shrinks capacity again.
			cfg.SubmitCost = 7 * time.Millisecond
			cfg.ThreadOverhead = 0.35
			cfg.Control = workload.Constant(offeredPerClient*float64(clients),
				time.Duration(opts.MeasureSeconds)*time.Second, time.Second)
			cfg.DrainTimeout = 3 * time.Minute
			return sched, bc, cfg, nil
		},
		Digest: func(res *core.Result, _ chain.Blockchain) (Fig10Result, error) {
			rep := res.Report
			return Fig10Result{
				Sweep:      sweep,
				Clients:    clients,
				Threads:    threads,
				Throughput: rep.Throughput,
				AvgLatency: rep.AvgLatency,
				Committed:  rep.Committed,
				Aborted:    rep.Aborted,
				Rejected:   rep.Rejected,
			}, nil
		},
	}
}

// Fig10Run executes one Fabric evaluation at the given concurrency.
func Fig10Run(ctx context.Context, sweep string, clients, threads int, offeredPerClient float64, opts Options) (Fig10Result, error) {
	opts.fillDefaults()
	runs := []harness.Run[Fig10Result]{fig10Run(sweep, clients, threads, offeredPerClient, opts)}
	rows, err := harness.Collect(harness.Execute(ctx, runs, opts.harnessOptions()))
	if err != nil {
		return Fig10Result{}, fmt.Errorf("experiments: %w", err)
	}
	return rows[0], nil
}

// Fig10 sweeps worker threads (at one client) and client machines (at two
// threads each) against Fabric. Expected shape (paper): throughput peaks
// and latency bottoms at 2 threads (matching the client's 2 vCPUs);
// throughput peaks at 2 clients, latency rises significantly at 3-4 clients
// as conflicts grow with the backlog, and at 5 clients the nodes shed load
// — committed throughput drops while surviving-transaction latency stops
// rising.
func Fig10(ctx context.Context, opts Options) ([]Fig10Result, error) {
	opts.fillDefaults()
	var runs []harness.Run[Fig10Result]
	for _, threads := range []int{1, 2, 3, 4, 6, 8} {
		// 260 tx/s sits just under the 2-thread client capacity, so the
		// sweep isolates client-side scheduling rather than chain backlog.
		runs = append(runs, fig10Run("threads", 1, threads, 260, opts))
	}
	for _, clients := range []int{1, 2, 3, 4, 5} {
		runs = append(runs, fig10Run("clients", clients, 2, 150, opts))
	}
	rows, err := harness.Collect(harness.Execute(ctx, runs, opts.harnessOptions()))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return rows, nil
}

// Fig10CSV renders the rows for the CSV exporter.
func Fig10CSV(rows []Fig10Result) (header []string, records [][]string) {
	header = []string{"sweep", "clients", "threads", "throughput_tps", "avg_latency_s", "committed", "aborted", "rejected"}
	for _, r := range rows {
		records = append(records, []string{
			r.Sweep, fmt.Sprint(r.Clients), fmt.Sprint(r.Threads), fmtF(r.Throughput),
			fmtSeconds(r.AvgLatency), fmt.Sprint(r.Committed), fmt.Sprint(r.Aborted), fmt.Sprint(r.Rejected),
		})
	}
	return header, records
}
