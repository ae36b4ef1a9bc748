// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§V), plus ablation benchmarks for the design choices DESIGN.md
// calls out. SUT experiments run on the virtual clock, so a benchmark
// iteration replays the full experiment and reports the measured TPS and
// latency through b.ReportMetric; CPU-bound experiments (Fig 8, Fig 9,
// Table III) run in real time. The paper-scale CLI equivalents are
// `hammer-bench -exp all` and `hammer-predict -exp all`.
package hammer_test

import (
	"context"

	"fmt"
	"testing"
	"time"

	"hammer/internal/chain"
	"hammer/internal/experiments"
	"hammer/internal/models"
	"hammer/internal/randx"
	"hammer/internal/taskproc"
	"hammer/internal/timeseries"
	"hammer/internal/timeseries/datasets"
)

// benchOpts keeps virtual-time experiments heavy enough to be meaningful
// but small enough that -bench=. completes in minutes.
func benchOpts() experiments.Options {
	opts := experiments.Quick()
	opts.Accounts = 2000
	opts.MeasureSeconds = 20
	return opts
}

// BenchmarkFig1Datasets regenerates the three application transaction logs
// behind Fig 1.
func BenchmarkFig1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if r.Totals["nfts"] == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkFig6PeakPerformance replays the chain comparison of Fig 6 per
// iteration — the timed region is the full experiment, so -benchtime and
// benchstat comparisons across commits are meaningful. The final iteration's
// peak TPS and average latency are reported alongside ns/op.
func BenchmarkFig6PeakPerformance(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.ChainResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig6(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	var peakTPS, latencyMS float64
	for _, row := range rows {
		if row.Throughput > peakTPS {
			peakTPS = row.Throughput
			latencyMS = row.AvgLatency.Seconds() * 1000
		}
	}
	b.ReportMetric(peakTPS, "peak_tps")
	b.ReportMetric(latencyMS, "latency_ms")
}

// BenchmarkFig7FrameworkComparison replays the Hammer/Blockbench/Caliper
// comparison of Fig 7 on Fabric and Ethereum per iteration, timing the full
// experiment. The final iteration's Hammer-on-Fabric TPS is reported.
func BenchmarkFig7FrameworkComparison(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.FrameworkResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig7(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		if row.Chain == "fabric" && row.Framework == "hammer" {
			b.ReportMetric(row.Throughput, "tps")
			b.ReportMetric(row.AvgLatency.Seconds()*1000, "latency_ms")
		}
	}
}

// BenchmarkFig8SignaturePipeline measures real workload-preparation
// throughput under the three signing strategies of Fig 8.
func BenchmarkFig8SignaturePipeline(b *testing.B) {
	opts := benchOpts()
	opts.SignCount = 2000
	for _, strategy := range []string{"serial", "async", "async-pipeline"} {
		strategy := strategy
		b.Run(strategy, func(b *testing.B) {
			var lastSpeedup float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig8(opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Strategy == strategy {
						lastSpeedup = r.Speedup
					}
				}
			}
			b.ReportMetric(lastSpeedup, "speedup")
		})
	}
	b.Run("simulated-8-workers", func(b *testing.B) {
		var pipeline float64
		for i := 0; i < b.N; i++ {
			rows, err := experiments.Fig8Simulated(opts, 8, 0)
			if err != nil {
				b.Fatal(err)
			}
			pipeline = rows[2].Speedup
		}
		b.ReportMetric(pipeline, "speedup")
	})
}

// BenchmarkFig9TaskProcessing measures Hammer's task-processing algorithm
// against the batch-testing baseline across queue lengths (Fig 9) — the
// paper's >50% reduction at 100k transactions.
func BenchmarkFig9TaskProcessing(b *testing.B) {
	for _, n := range []int{10000, 50000, 100000} {
		for _, algo := range []string{"taskproc", "batch"} {
			n, algo := n, algo
			b.Run(fmt.Sprintf("%s/queue-%d", algo, n), func(b *testing.B) {
				tracked, blocks := buildFig9(b, n, 10000)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var m taskproc.Matcher
					if algo == "taskproc" {
						m = taskproc.NewProcessor(n)
					} else {
						m = taskproc.NewBatchQueue(n)
					}
					for _, rec := range tracked {
						m.Track(rec)
					}
					matched := 0
					for _, blk := range blocks {
						matched += m.OnBlock(blk)
					}
					if matched != 10000 {
						b.Fatalf("matched %d", matched)
					}
				}
			})
		}
	}
}

func buildFig9(b *testing.B, n, m int) ([]taskproc.TxRecord, []*chain.Block) {
	b.Helper()
	rng := randx.New(1)
	tracked := make([]taskproc.TxRecord, n)
	ids := make([]chain.TxID, n)
	for i := range tracked {
		rng.Read(ids[i][:])
		tracked[i] = taskproc.TxRecord{ID: ids[i], StartTime: time.Duration(i), Status: chain.StatusPending}
	}
	var blocks []*chain.Block
	picked := rng.Perm(n)[:m]
	for start := 0; start < len(picked); start += 500 {
		end := start + 500
		if end > len(picked) {
			end = len(picked)
		}
		blk := &chain.Block{Timestamp: time.Duration(start)}
		for _, idx := range picked[start:end] {
			blk.Receipts = append(blk.Receipts, &chain.Receipt{TxID: ids[idx], Status: chain.StatusCommitted})
		}
		blocks = append(blocks, blk)
	}
	return tracked, blocks
}

// BenchmarkFig10Concurrency replays the thread and client sweeps of Fig 10
// against Fabric.
func BenchmarkFig10Concurrency(b *testing.B) {
	opts := benchOpts()
	type point struct {
		name             string
		clients, threads int
		perClient        float64
	}
	points := []point{
		{"threads-1", 1, 1, 300},
		{"threads-2", 1, 2, 300},
		{"threads-4", 1, 4, 300},
		{"clients-1", 1, 2, 150},
		{"clients-2", 2, 2, 150},
		{"clients-5", 5, 2, 150},
	}
	for _, pt := range points {
		pt := pt
		b.Run(pt.name, func(b *testing.B) {
			var row experiments.Fig10Result
			for i := 0; i < b.N; i++ {
				var err error
				row, err = experiments.Fig10Run(context.Background(), "bench", pt.clients, pt.threads, pt.perClient, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Throughput, "tps")
			b.ReportMetric(row.AvgLatency.Seconds()*1000, "latency_ms")
		})
	}
}

// BenchmarkCorrectness replays the §V-C validation run and verifies the
// framework's statistics against the node commit log.
func BenchmarkCorrectness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Correctness(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Audit.Consistent() {
			b.Fatal("framework statistics inconsistent with node log")
		}
	}
}

// BenchmarkTable3Models measures training+evaluation of each Table III
// method on the sandbox dataset, reporting the held-out MAE.
func BenchmarkTable3Models(b *testing.B) {
	series := datasets.Sandbox(8).HourlySeries()
	train, _ := timeseries.Split(series, 0.8)
	cfg := models.DefaultConfig()
	cfg.Epochs = 40
	cfg.Lookback = 12
	cfg.Hidden = 8
	methods := []struct {
		name  string
		build func(models.Config) models.Predictor
	}{
		{"Linear", func(c models.Config) models.Predictor { return models.NewLinear(c) }},
		{"RNN", models.NewRNN},
		{"TCN", models.NewTCN},
		{"Transformer", models.NewTransformer},
		{"Hammer", models.NewHammer},
	}
	for _, m := range methods {
		m := m
		b.Run(m.name, func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				p := m.build(cfg)
				if err := p.Fit(train); err != nil {
					b.Fatal(err)
				}
				metrics, err := models.EvaluateNormalized(p, series, len(train))
				if err != nil {
					b.Fatal(err)
				}
				mae = metrics.MAE
			}
			b.ReportMetric(mae, "mae")
		})
	}
}

// BenchmarkFig11Generation measures autoregressive control-sequence
// extension (Fig 11's generated series).
func BenchmarkFig11Generation(b *testing.B) {
	series := datasets.NFTs(9).HourlySeries()
	cfg := models.DefaultConfig()
	cfg.Epochs = 20
	cfg.Lookback = 12
	cfg.Hidden = 8
	p := models.NewHammer(cfg)
	if err := p.Fit(series[:240]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := models.Generate(p, series[:240], 60); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §12) ---

// BenchmarkAblationBloomFilter isolates the Bloom filter's value when
// foreign transactions dominate block contents (the distributed-testing
// scenario of Algorithm 1).
func BenchmarkAblationBloomFilter(b *testing.B) {
	const tracked = 20000
	rng := randx.New(2)
	recs := make([]taskproc.TxRecord, tracked)
	for i := range recs {
		var id chain.TxID
		rng.Read(id[:])
		recs[i] = taskproc.TxRecord{ID: id, Status: chain.StatusPending}
	}
	// Blocks of entirely foreign transactions.
	blk := &chain.Block{Timestamp: time.Second}
	for i := 0; i < 5000; i++ {
		var id chain.TxID
		rng.Read(id[:])
		blk.Receipts = append(blk.Receipts, &chain.Receipt{TxID: id, Status: chain.StatusCommitted})
	}
	for _, variant := range []struct {
		name string
		opts []taskproc.Option
	}{
		{"with-bloom", nil},
		{"without-bloom", []taskproc.Option{taskproc.WithoutBloom()}},
	} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			p := taskproc.NewProcessor(tracked, variant.opts...)
			for _, rec := range recs {
				p.Track(rec)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.OnBlock(blk) != 0 {
					b.Fatal("foreign block should match nothing")
				}
			}
		})
	}
}

// BenchmarkAblationIndexResize compares the dynamically-resized hash index
// against one pre-sized far too small, quantifying the paper's
// "expand the hash table to minimise collisions" choice.
func BenchmarkAblationIndexResize(b *testing.B) {
	const n = 100000
	rng := randx.New(3)
	ids := make([]chain.TxID, n)
	for i := range ids {
		rng.Read(ids[i][:])
	}
	b.Run("presized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := taskproc.NewHashIndex(n)
			for j, id := range ids {
				ix.Put(id, j)
			}
			for _, id := range ids {
				if _, ok := ix.Get(id); !ok {
					b.Fatal("miss")
				}
			}
		}
	})
	b.Run("grown-from-16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := taskproc.NewHashIndex(0)
			for j, id := range ids {
				ix.Put(id, j)
			}
			for _, id := range ids {
				if _, ok := ix.Get(id); !ok {
					b.Fatal("miss")
				}
			}
		}
	})
}

// BenchmarkAblationVectorVsQueue isolates the bookkeeping structure choice:
// Hammer's append-only vector list against the baseline's delete-from-queue.
func BenchmarkAblationVectorVsQueue(b *testing.B) {
	const n = 50000
	tracked, blocks := buildFig9(b, n, n) // match everything: worst case
	b.Run("vector-list", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := taskproc.NewProcessor(n)
			for _, rec := range tracked {
				p.Track(rec)
			}
			for _, blk := range blocks {
				p.OnBlock(blk)
			}
		}
	})
	b.Run("queue", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := taskproc.NewBatchQueue(n)
			for _, rec := range tracked {
				q.Track(rec)
			}
			for _, blk := range blocks {
				q.OnBlock(blk)
			}
		}
	})
}

// BenchmarkAblationPollInterval sweeps the batch driver's polling interval
// (ξ1 in §II-C1): coarser polling inflates the latency it reports.
func BenchmarkAblationPollInterval(b *testing.B) {
	for _, poll := range []time.Duration{100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second} {
		poll := poll
		b.Run(poll.String(), func(b *testing.B) {
			var latency time.Duration
			for i := 0; i < b.N; i++ {
				row, err := experiments.PollIntervalRun(context.Background(), poll, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				latency = row
			}
			b.ReportMetric(latency.Seconds()*1000, "latency_ms")
		})
	}
}
