package experiments

import (
	"fmt"
	"time"

	"hammer/internal/chains/basechain"
	"hammer/internal/eventsim"
	"hammer/internal/sign"
	"hammer/internal/workload"
)

// Fig8SimResult is one simulated Fig 8 data point: the preparation makespan
// of a signing strategy on a W-core testbed client, with the per-signature
// cost calibrated from real ECDSA signing on this machine.
type Fig8SimResult struct {
	Strategy string
	Count    int
	Workers  int
	// SignCost is the calibrated real cost of one signature.
	SignCost time.Duration
	// Makespan is the virtual time until every transaction has been
	// signed and handed to execution.
	Makespan time.Duration
	// Speedup is relative to the serial strategy.
	Speedup float64
}

// String renders the row.
func (r Fig8SimResult) String() string {
	return fmt.Sprintf("%-14s %6d txs on %d cores  %10v  %5.2fx",
		r.Strategy, r.Count, r.Workers, r.Makespan.Round(time.Millisecond), r.Speedup)
}

// CalibrateSignCost measures the real per-signature cost by signing a small
// batch of transactions with ECDSA P-256.
func CalibrateSignCost(seed int64) (time.Duration, error) {
	signer, err := sign.NewSigner(seed)
	if err != nil {
		return 0, err
	}
	gen, err := workload.NewGenerator(workload.Profile{
		Name: "calibrate", Accounts: 100, InitialBalance: 1, MaxAmount: 10, Seed: seed,
	})
	if err != nil {
		return 0, err
	}
	const n = 256
	txs := gen.Batch(n, "c", "s")
	start := time.Now()
	if err := sign.SignSerial(txs, signer); err != nil {
		return 0, err
	}
	return time.Since(start) / n, nil
}

// Fig8Simulated reproduces Fig 8 on the paper's multi-core testbed via
// discrete-event simulation: the per-signature cost is measured for real on
// this machine, then the three strategies are replayed on a virtual client
// with the given worker count. execRate is how fast the execution phase can
// consume prepared transactions into its send pipeline (tx/s); pipelining
// hides signing behind that consumption, which is where the paper's ≈6.88×
// over serial comes from.
func Fig8Simulated(opts Options, workers int, execRate float64) ([]Fig8SimResult, error) {
	opts.fillDefaults()
	if workers <= 0 {
		workers = 8
	}
	if execRate <= 0 {
		execRate = 500_000
	}
	signCost, err := CalibrateSignCost(opts.Seed)
	if err != nil {
		return nil, err
	}
	n := opts.SignCount
	execGap := time.Duration(float64(time.Second) / execRate)

	// dispatchOverhead models the queue/channel coordination per
	// transaction that keeps real pools below perfect scaling.
	const dispatchOverhead = 8 * time.Microsecond

	run := func(strategy string) time.Duration {
		sched := eventsim.New()
		var pool *basechain.Compute
		switch strategy {
		case "serial":
			pool = basechain.NewCompute(sched, 1)
		default:
			pool = basechain.NewCompute(sched, workers)
		}
		perTx := signCost
		if strategy != "serial" {
			perTx += dispatchOverhead
		}

		var lastReady time.Duration
		for i := 0; i < n; i++ {
			done := pool.Run(perTx, nil)
			if done > lastReady {
				lastReady = done
			}
		}
		switch strategy {
		case "async-pipeline":
			// Execution consumes transactions as they are signed; the
			// makespan is when the last transaction is both signed and
			// consumed.
			execDone := time.Duration(n) * execGap
			if lastReady > execDone {
				return lastReady
			}
			return execDone
		default:
			// Serial and async wait for the whole batch, then execution
			// starts from zero.
			return lastReady + time.Duration(n)*execGap
		}
	}

	serial := run("serial")
	var out []Fig8SimResult
	for _, strategy := range []string{"serial", "async", "async-pipeline"} {
		makespan := run(strategy)
		out = append(out, Fig8SimResult{
			Strategy: strategy,
			Count:    n,
			Workers:  workers,
			SignCost: signCost,
			Makespan: makespan,
			Speedup:  serial.Seconds() / makespan.Seconds(),
		})
	}
	return out, nil
}

// Fig8SimCSV renders the rows for the CSV exporter.
func Fig8SimCSV(rows []Fig8SimResult) (header []string, records [][]string) {
	header = []string{"strategy", "count", "workers", "sign_cost_us", "makespan_s", "speedup_vs_serial"}
	for _, r := range rows {
		records = append(records, []string{
			r.Strategy, fmt.Sprint(r.Count), fmt.Sprint(r.Workers),
			fmt.Sprintf("%.1f", float64(r.SignCost.Nanoseconds())/1000), fmtSeconds(r.Makespan), fmtF(r.Speedup),
		})
	}
	return header, records
}
