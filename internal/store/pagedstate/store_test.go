package pagedstate

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Dir:          t.TempDir(),
		PageSize:     4096,
		CacheBytes:   64 << 10, // 16 frames: forces eviction in every test
		ExpectedKeys: 1024,
	}
}

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestBasicCRUD(t *testing.T) {
	s := mustOpen(t, testConfig(t))
	if _, _, ok := s.Get("missing"); ok {
		t.Fatal("Get on empty store reported ok")
	}
	s.Set("a", []byte("alpha"), 3)
	s.Set("b", []byte("beta"), 4)
	if v, ver, ok := s.Get("a"); !ok || string(v) != "alpha" || ver != 3 {
		t.Fatalf("Get(a) = %q v%d ok=%v", v, ver, ok)
	}
	s.Set("a", []byte("ALPHA"), 9) // same length: in-place patch
	if v, ver, ok := s.Get("a"); !ok || string(v) != "ALPHA" || ver != 9 {
		t.Fatalf("after update Get(a) = %q v%d ok=%v", v, ver, ok)
	}
	s.Set("a", []byte("much longer value than before"), 10) // resize path
	if v, _, ok := s.Get("a"); !ok || string(v) != "much longer value than before" {
		t.Fatalf("after resize Get(a) = %q ok=%v", v, ok)
	}
	if n := s.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	s.Delete("a")
	if _, _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len after delete = %d, want 1", n)
	}
	if keys := s.Keys(); !reflect.DeepEqual(keys, []string{"b"}) {
		t.Fatalf("Keys = %v", keys)
	}
}

// TestReferenceModel drives the store and a plain map through an identical
// random operation sequence and diffs them continuously — the same oracle
// style the invariant subsystem uses.
func TestReferenceModel(t *testing.T) {
	s := mustOpen(t, testConfig(t))
	rng := rand.New(rand.NewSource(7))
	type vv struct {
		val string
		ver uint64
	}
	model := make(map[string]vv)
	keyOf := func(i int) string { return fmt.Sprintf("acct%05d", i) }

	const ops = 30000
	const keySpace = 2000
	for op := 0; op < ops; op++ {
		k := keyOf(rng.Intn(keySpace))
		switch rng.Intn(10) {
		case 0: // delete
			delete(model, k)
			s.Delete(k)
		case 1, 2, 3: // read
			v, ver, ok := s.Get(k)
			want, wok := model[k]
			if ok != wok || (ok && (string(v) != want.val || ver != want.ver)) {
				t.Fatalf("op %d: Get(%s) = %q v%d ok=%v, model %q v%d ok=%v",
					op, k, v, ver, ok, want.val, want.ver, wok)
			}
		default: // write, variable-length values exercise resize/compaction
			val := fmt.Sprintf("balance=%d;pad=%s", rng.Intn(1_000_000),
				"x"[:0]+fmt.Sprintf("%0*d", rng.Intn(40), 0))
			ver := uint64(op)
			model[k] = vv{val: val, ver: ver}
			s.Set(k, []byte(val), ver)
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(model))
	}
	wantKeys := make([]string, 0, len(model))
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	if got := s.Keys(); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("Keys diverged: got %d keys, want %d", len(got), len(wantKeys))
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Errorf("test never evicted (cache %d frames) — shrink the budget", st.CacheBudgetBytes/4096)
	}
}

// TestReopenPersists closes a populated store and reopens it: everything
// must come back, including the key count and Bloom filters from meta.
func TestReopenPersists(t *testing.T) {
	cfg := testConfig(t)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		s.Set(fmt.Sprintf("key%05d", i), []byte(fmt.Sprintf("val%d", i)), uint64(i))
	}
	s.Delete("key00000")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, cfg)
	if got := s2.Len(); got != n-1 {
		t.Fatalf("reopened Len = %d, want %d", got, n-1)
	}
	if _, _, ok := s2.Get("key00000"); ok {
		t.Fatal("deleted key resurrected by reopen")
	}
	if v, ver, ok := s2.Get("key04999"); !ok || string(v) != "val4999" || ver != 4999 {
		t.Fatalf("reopened Get = %q v%d ok=%v", v, ver, ok)
	}
	// The persisted bloom must still gate never-written keys.
	st0 := s2.Stats()
	if _, _, ok := s2.Get("never-written-key"); ok {
		t.Fatal("phantom key")
	}
	if st := s2.Stats(); st.BloomNegatives != st0.BloomNegatives+1 {
		t.Errorf("miss read did not short-circuit through the bloom filter (neg %d -> %d)",
			st0.BloomNegatives, st.BloomNegatives)
	}
}

func TestBloomGateCounts(t *testing.T) {
	s := mustOpen(t, testConfig(t))
	for i := 0; i < 1000; i++ {
		s.Set(fmt.Sprintf("present%04d", i), []byte("v"), 1)
	}
	st0 := s.Stats()
	misses := 0
	for i := 0; i < 1000; i++ {
		if _, _, ok := s.Get(fmt.Sprintf("absent%04d", i)); ok {
			t.Fatalf("absent key %d present", i)
		}
		misses++
	}
	st := s.Stats()
	gated := st.BloomNegatives - st0.BloomNegatives
	// At a 1% per-filter false-positive target, nearly all of the 1000
	// misses must be answered without touching a page.
	if gated < 900 {
		t.Errorf("bloom gated only %d of %d negative reads", gated, misses)
	}
}

func TestDisableBloom(t *testing.T) {
	cfg := testConfig(t)
	cfg.DisableBloom = true
	s := mustOpen(t, cfg)
	s.Set("k", []byte("v"), 1)
	if _, _, ok := s.Get("absent"); ok {
		t.Fatal("phantom key")
	}
	if st := s.Stats(); st.BloomNegatives != 0 {
		t.Fatalf("disabled bloom still gated %d reads", st.BloomNegatives)
	}
}

// TestTinyCacheLargePopulation proves correctness when the working set is
// far larger than the cache: every page access churns through eviction.
func TestTinyCacheLargePopulation(t *testing.T) {
	cfg := testConfig(t)
	cfg.CacheBytes = 1 // clamped to the 8-frame floor
	s := mustOpen(t, cfg)
	const n = 20000
	for i := 0; i < n; i++ {
		s.Set(fmt.Sprintf("acct%06d", i), []byte(fmt.Sprintf("balance-%06d", i)), uint64(i))
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	rng := rand.New(rand.NewSource(3))
	for probe := 0; probe < 2000; probe++ {
		i := rng.Intn(n)
		v, ver, ok := s.Get(fmt.Sprintf("acct%06d", i))
		if !ok || string(v) != fmt.Sprintf("balance-%06d", i) || ver != uint64(i) {
			t.Fatalf("probe %d: Get(acct%06d) = %q v%d ok=%v", probe, i, v, ver, ok)
		}
	}
	st := s.Stats()
	if st.ResidentPages > 8 {
		t.Fatalf("cache exceeded its budget: %d frames resident", st.ResidentPages)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions at 8 frames over 20k keys")
	}
}

// TestHeapBoundedByCache proves the store's heap tracks the cache budget,
// not the population: 100k keys carry ≈7.7 MB of raw payload, so a cache
// that kept evicted pages, or any in-RAM copy of the data, would blow the
// bound that a 1 MiB cache plus the directory and Bloom filters fits in.
func TestHeapBoundedByCache(t *testing.T) {
	const (
		keys      = 100_000
		maxGrowth = 4 << 20
	)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := mustOpen(t, Config{Dir: t.TempDir(), CacheBytes: 1 << 20, ExpectedKeys: keys})
	val := make([]byte, 64)
	for i := 0; i < keys; i++ {
		val[0] = byte(i)
		s.Set(fmt.Sprintf("acct%07d", i), val, uint64(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
	}
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew > maxGrowth {
		t.Fatalf("HeapInuse grew %.1f MiB over %d keys with a 1 MiB cache, want ≤ %d MiB",
			float64(grew)/(1<<20), keys, maxGrowth>>20)
	}
}

// TestAutoCheckpointBoundsWAL proves a long run cannot grow the log without
// bound: the store folds the WAL into the pages whenever it crosses the
// configured budget, and the data survives the mid-run checkpoints.
func TestAutoCheckpointBoundsWAL(t *testing.T) {
	cfg := testConfig(t)
	cfg.WALFlushBytes = 1024
	cfg.CheckpointWALBytes = 8 << 10
	s := mustOpen(t, cfg)
	const n = 3000
	for i := 0; i < n; i++ {
		s.Set(fmt.Sprintf("key%05d", i), []byte(fmt.Sprintf("val%d", i)), uint64(i))
		if st := s.Stats(); st.WALBytes >= int64(cfg.CheckpointWALBytes) {
			t.Fatalf("op %d: WAL at %d bytes exceeds the %d-byte checkpoint budget", i, st.WALBytes, cfg.CheckpointWALBytes)
		}
	}
	st := s.Stats()
	if st.Checkpoints == 0 {
		t.Fatalf("no automatic checkpoint over %d sets with an %d-byte budget", n, cfg.CheckpointWALBytes)
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		k := fmt.Sprintf("key%05d", i)
		v, ver, ok := s.Get(k)
		if !ok || string(v) != fmt.Sprintf("val%d", i) || ver != uint64(i) {
			t.Fatalf("after auto checkpoints Get(%s) = %q v%d ok=%v", k, v, ver, ok)
		}
	}

	// A negative budget disables the trigger entirely.
	off := testConfig(t)
	off.CheckpointWALBytes = -1
	s2 := mustOpen(t, off)
	for i := 0; i < n; i++ {
		s2.Set(fmt.Sprintf("key%05d", i), []byte("v"), uint64(i))
	}
	if st := s2.Stats(); st.Checkpoints != 0 {
		t.Fatalf("disabled auto checkpoint still fired %d times", st.Checkpoints)
	}
}

func TestVersionZeroValueAndEmptyValue(t *testing.T) {
	s := mustOpen(t, testConfig(t))
	s.Set("empty", []byte{}, 0)
	v, ver, ok := s.Get("empty")
	if !ok || len(v) != 0 || ver != 0 {
		t.Fatalf("Get(empty) = %q v%d ok=%v, want present empty value at version 0", v, ver, ok)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := mustOpen(t, testConfig(t))
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%100)
				s.Set(k, []byte(fmt.Sprintf("v%d", i)), uint64(i))
				s.Get(k)
				if i%10 == 0 {
					s.Len()
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestOpenRejectsBadConfig(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open with no Dir succeeded")
	}
	if _, err := Open(Config{Dir: t.TempDir(), PageSize: 1024}); err == nil {
		t.Fatal("Open with undersized pages succeeded")
	}
	cfg := testConfig(t)
	s := mustOpen(t, cfg)
	s.Set("k", []byte("v"), 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.PageSize = 16384
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open with mismatched page size succeeded")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	cfg := testConfig(t)
	s := mustOpen(t, cfg)
	const n = 3000
	for i := 0; i < n; i++ {
		s.Set(fmt.Sprintf("acct%05d", i), []byte(fmt.Sprintf("bal=%d", i*i)), uint64(i))
	}
	snap := filepath.Join(t.TempDir(), "state.snap")
	if err := s.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	// Load into a fresh store with a different geometry: snapshots are
	// portable across page size and cache budget.
	cfg2 := Config{Dir: t.TempDir(), PageSize: 16384, CacheBytes: 1, ExpectedKeys: 64}
	s2, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != n {
		t.Fatalf("loaded Len = %d, want %d", s2.Len(), n)
	}
	for _, i := range []int{0, 1, 1499, n - 1} {
		k := fmt.Sprintf("acct%05d", i)
		v, ver, ok := s2.Get(k)
		if !ok || string(v) != fmt.Sprintf("bal=%d", i*i) || ver != uint64(i) {
			t.Fatalf("Get(%s) = %q v%d ok=%v", k, v, ver, ok)
		}
	}
	if !reflect.DeepEqual(s.Keys(), s2.Keys()) {
		t.Fatal("snapshot load changed the key set")
	}
	// Refusing to load over existing state keeps warm-start semantics
	// unambiguous.
	if err := s2.LoadSnapshot(snap); err == nil {
		t.Fatal("LoadSnapshot into non-empty store succeeded")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	s := mustOpen(t, testConfig(t))
	for i := 0; i < 100; i++ {
		s.Set(fmt.Sprintf("k%d", i), []byte("v"), 1)
	}
	snap := filepath.Join(t.TempDir(), "state.snap")
	if err := s.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []struct {
		name string
		f    func([]byte) []byte
	}{
		{"flip byte", func(b []byte) []byte { b = append([]byte(nil), b...); b[20] ^= 0xFF; return b }},
		{"truncate", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		bad := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(bad, mutate.f(data), 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := mustOpen(t, testConfig(t))
		if err := s2.LoadSnapshot(bad); err == nil {
			t.Errorf("%s: corrupted snapshot loaded without error", mutate.name)
		}
		if s2.Len() != 0 {
			t.Errorf("%s: corrupted snapshot partially applied (%d keys)", mutate.name, s2.Len())
		}
	}
}
