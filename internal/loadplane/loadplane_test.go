package loadplane

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"hammer/internal/metrics"
)

// smallSpec is a population small enough for fast tests but large enough
// that partitionings genuinely interleave arrivals.
func smallSpec() Spec {
	return Spec{
		Clients:       3000,
		RatePerClient: 2,
		Duration:      8 * time.Second,
		Window:        time.Second,
		Seed:          42,
		Service:       ServiceModel{RatePerSec: 4000, QueueCap: 9000, BaseLatency: 10 * time.Millisecond},
		BatchWindows:  3,
	}
}

func TestPartitionClientsProperties(t *testing.T) {
	cases := []struct{ clients, workers int }{
		{10, 3}, {10, 1}, {10, 10}, {10, 20}, {1_000_000, 7}, {5, 4},
	}
	for _, c := range cases {
		ranges := PartitionClients(c.clients, c.workers)
		lo := 0
		minLen, maxLen := c.clients+1, -1
		for _, r := range ranges {
			if r.Lo != lo {
				t.Fatalf("%v: ranges not contiguous at %v", c, r)
			}
			if !r.Valid(c.clients) {
				t.Fatalf("%v: invalid range %v", c, r)
			}
			if r.Len() < minLen {
				minLen = r.Len()
			}
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
			lo = r.Hi
		}
		if lo != c.clients {
			t.Fatalf("%v: ranges cover %d of %d clients", c, lo, c.clients)
		}
		if maxLen-minLen > 1 {
			t.Fatalf("%v: unbalanced ranges (%d..%d)", c, minLen, maxLen)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	s := smallSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := s
	bad.Clients = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero clients should fail")
	}
	bad = s
	bad.Duration = time.Millisecond
	if err := bad.Validate(); err == nil {
		t.Fatal("duration shorter than a window should fail")
	}
	bad = s
	bad.Window = time.Nanosecond
	if err := bad.Validate(); err == nil {
		t.Fatal("absurd window count should fail")
	}
}

// TestPartitionInvariance is the core determinism property: generating the
// same population as 1, 3, or 5 shards must merge to the identical series —
// arrivals, busy counts, and the arrival-multiset checksum all equal.
func TestPartitionInvariance(t *testing.T) {
	spec := smallSpec()
	ctx := context.Background()
	ref, err := InProcess(ctx, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.SumArrivals(ref) == 0 {
		t.Fatal("reference run generated no arrivals")
	}
	for _, workers := range []int{2, 3, 5} {
		got, err := InProcess(ctx, spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("%d workers: %d windows, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%d workers: window %d diverged: %+v vs %+v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestMergedCSVByteIdentity pins the end artifact: the full CSV, including
// the service-model columns, is byte-identical across partitionings.
func TestMergedCSVByteIdentity(t *testing.T) {
	spec := smallSpec()
	ctx := context.Background()
	var want string
	for i, workers := range []int{1, 4} {
		merged, err := InProcess(ctx, spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		csv, err := MergedCSV(spec, merged)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = csv
			if !strings.HasPrefix(csv, "window,offered,") {
				t.Fatalf("unexpected header: %q", csv[:40])
			}
			continue
		}
		if csv != want {
			t.Fatalf("CSV bytes diverged between 1 and %d workers", workers)
		}
	}
}

// TestSeedChangesStream: a different seed must produce a different arrival
// multiset (checksum catches it even if totals happened to collide).
func TestSeedChangesStream(t *testing.T) {
	a := smallSpec()
	b := smallSpec()
	b.Seed = 43
	ra, err := InProcess(context.Background(), a, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := InProcess(context.Background(), b, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range ra {
		if ra[i].Checksum != rb[i].Checksum {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical checksums")
	}
}

// TestResumeFromWindow: generating with startWindow=k must emit exactly the
// suffix of the full series — the worker-rejoin path.
func TestResumeFromWindow(t *testing.T) {
	spec := smallSpec()
	rng := Range{Lo: 100, Hi: 900}
	full, err := CollectRange(context.Background(), spec, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	suffix, err := CollectRange(context.Background(), spec, rng, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(suffix) != len(full)-k {
		t.Fatalf("suffix has %d windows, want %d", len(suffix), len(full)-k)
	}
	for i := range suffix {
		if suffix[i] != full[k+i] {
			t.Fatalf("resumed window %d diverged: %+v vs %+v", k+i, suffix[i], full[k+i])
		}
	}
}

// TestGenerateRangeBatching: emit batches respect BatchWindows and arrive in
// window order.
func TestGenerateRangeBatching(t *testing.T) {
	spec := smallSpec()
	var sizes []int
	var lastIdx int64 = -1
	err := GenerateRange(context.Background(), spec, Range{Lo: 0, Hi: 50}, 0, func(ws []metrics.Window) error {
		sizes = append(sizes, len(ws))
		for _, w := range ws {
			if w.Index != lastIdx+1 {
				t.Fatalf("out-of-order emit: %d after %d", w.Index, lastIdx)
			}
			lastIdx = w.Index
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastIdx != spec.Windows()-1 {
		t.Fatalf("emitted through window %d, want %d", lastIdx, spec.Windows()-1)
	}
	for i, n := range sizes {
		if n > spec.BatchWindows {
			t.Fatalf("batch %d has %d windows, cap %d", i, n, spec.BatchWindows)
		}
	}
}

func TestGenerateRangeCancellation(t *testing.T) {
	spec := smallSpec()
	spec.Clients = 50_000
	spec.Duration = time.Hour
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := GenerateRange(ctx, spec, Range{Lo: 0, Hi: spec.Clients}, 0, func([]metrics.Window) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

func TestGenerateRangeRejectsBadInput(t *testing.T) {
	spec := smallSpec()
	sink := func([]metrics.Window) error { return nil }
	if err := GenerateRange(context.Background(), spec, Range{Lo: 5, Hi: 5}, 0, sink); err == nil {
		t.Fatal("empty range should fail")
	}
	if err := GenerateRange(context.Background(), spec, Range{Lo: 0, Hi: spec.Clients + 1}, 0, sink); err == nil {
		t.Fatal("out-of-population range should fail")
	}
	if err := GenerateRange(context.Background(), spec, Range{Lo: 0, Hi: 10}, -1, sink); err == nil {
		t.Fatal("negative start window should fail")
	}
}

// TestOpenLoopQueueDynamics: with offered load above capacity the open-loop
// model must grow the queue, saturate at the cap, and start dropping —
// exactly what closed-loop injection hides.
func TestOpenLoopQueueDynamics(t *testing.T) {
	spec := smallSpec()
	spec.RatePerClient = 4 // 12k/s offered vs 4k/s service
	merged, err := InProcess(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := Evaluate(spec, merged)
	if rows[0].Queue <= 0 {
		t.Fatal("overloaded queue should grow in the first window")
	}
	last := rows[len(rows)-1]
	// Steady state: admission refills exactly what service drains, so the
	// end-of-window backlog pins at cap − (service rate × window).
	capPerWin := spec.Service.RatePerSec * spec.Window.Nanoseconds() / 1e9
	if want := spec.Service.QueueCap - capPerWin; last.Queue != want {
		t.Fatalf("queue should pin at %d, got %d", want, last.Queue)
	}
	if prev := rows[len(rows)-2]; prev.Queue != last.Queue {
		t.Fatalf("queue should be pinned: %d then %d", prev.Queue, last.Queue)
	}
	if last.Dropped <= 0 {
		t.Fatal("saturated run should drop arrivals")
	}
	if last.AvgLatencyNs <= rows[0].AvgLatencyNs {
		t.Fatal("latency should climb with the backlog")
	}
	var offered, admitted, dropped int64
	for _, r := range rows {
		offered += r.Offered
		admitted += r.Admitted
		dropped += r.Dropped
	}
	if offered != admitted+dropped {
		t.Fatalf("conservation: offered %d != admitted %d + dropped %d", offered, admitted, dropped)
	}
}

// TestClosedLoopSelfLimits: the closed-loop model's issue rate must collapse
// toward service capacity instead of exposing the true offered load.
func TestClosedLoopSelfLimits(t *testing.T) {
	spec := smallSpec()
	spec.Clients = 20_000
	spec.RatePerClient = 4 // open-loop would offer 80k/s vs 4k/s service
	rows := ClosedLoop(spec)
	last := rows[len(rows)-1]
	// In steady state the loop issues roughly what the service drains — far
	// below the open-loop offered rate.
	if last.Offered > 2*spec.Service.RatePerSec {
		t.Fatalf("closed loop issued %d/s; feedback should cap it near %d/s", last.Offered, spec.Service.RatePerSec)
	}
	if last.Dropped != 0 {
		t.Fatalf("self-limited loop should not drop, got %d", last.Dropped)
	}
}

// TestShardFootprintBounded pins the bounded-memory claim: 1M clients fit in
// ~16 MB of fixed-layout state.
func TestShardFootprintBounded(t *testing.T) {
	fp := ShardFootprint(Range{Lo: 0, Hi: 1_000_000})
	if fp > 20<<20 {
		t.Fatalf("1M-client footprint %d exceeds 20 MB", fp)
	}
}

// BenchmarkInProcess measures the sustained injection rate — arrivals
// generated per wall-clock second — of the canonical load-plane spec at
// 100k clients over 10 virtual seconds, across shard counts. The spec has
// experiments.LoadPlaneSpec's shape, built inline because experiments
// imports this package: the service drains half the offered load and queues
// up to one second of it.
func BenchmarkInProcess(b *testing.B) {
	spec := DefaultSpec()
	spec.Clients = 100_000
	spec.Duration = 10 * time.Second
	offered := int64(float64(spec.Clients) * spec.RatePerClient)
	spec.Service.RatePerSec = offered/2 + 1
	spec.Service.QueueCap = offered + 1
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var arrivals int64
			for i := 0; i < b.N; i++ {
				series, err := InProcess(context.Background(), spec, shards)
				if err != nil {
					b.Fatal(err)
				}
				arrivals += metrics.SumArrivals(series)
			}
			b.ReportMetric(float64(arrivals)/b.Elapsed().Seconds(), "arrivals/s")
		})
	}
}
