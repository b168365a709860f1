package core

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"llmsql/internal/llm"
)

// replayConfig is the record/replay property-test workload shape: the
// key-then-attr hot path with voting, sampling and both fan-out axes live.
func replayConfig(parallelism, batch int) Config {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Votes = 2
	cfg.MaxRounds = 3
	cfg.Temperature = 0.7
	cfg.Parallelism = parallelism
	cfg.BatchSize = batch
	return cfg
}

// TestReplayByteIdenticalToLiveRun is the tentpole's determinism property:
// replaying a recorded trace reproduces the live SynthLM run byte-for-byte
// — result rows, scan stats and the full Usage accounting (calls, tokens,
// SimLatency, SimWall, dollars) — at any Parallelism x BatchSize.
func TestReplayByteIdenticalToLiveRun(t *testing.T) {
	w := parWorld()
	queries := []string{
		"SELECT name, capital, population FROM country",
		"SELECT name, capital FROM country WHERE population > 20 LIMIT 3",
	}
	trace := llm.NewTrace()
	type variant struct{ p, b int }
	variants := []variant{{1, 1}, {4, 1}, {8, 3}, {2, 4}}

	type outcome struct {
		rows  string
		usage llm.Usage
		scans []ScanStats
	}
	run := func(cfg Config, query string) outcome {
		t.Helper()
		e := New(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
		for _, name := range w.DomainNames() {
			e.RegisterWorldDomain(w.Domain(name))
		}
		res, err := e.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{rows: renderRows(res.Result.Rows), usage: res.Usage, scans: res.Scans}
	}

	// Live runs, recording every completion that reaches the model —
	// including speculative prefetch calls, which replay must also serve.
	live := map[variant]map[string]outcome{}
	for _, v := range variants {
		live[v] = map[string]outcome{}
		for _, q := range queries {
			cfg := replayConfig(v.p, v.b)
			cfg.RecordTrace = trace
			live[v][q] = run(cfg, q)
		}
	}
	if trace.Len() == 0 {
		t.Fatal("recording captured nothing")
	}

	// The fixture round-trips through disk like the checked-in one does.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := trace.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := llm.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, v := range variants {
		for _, q := range queries {
			cfg := replayConfig(v.p, v.b)
			cfg.ReplayTrace = loaded
			got := run(cfg, q)
			want := live[v][q]
			if got.rows != want.rows {
				t.Fatalf("P=%d B=%d %q: replay changed rows", v.p, v.b, q)
			}
			if !usageEquivalent(got.usage, want.usage) {
				t.Fatalf("P=%d B=%d %q: replay changed usage:\nlive   %+v\nreplay %+v", v.p, v.b, q, want.usage, got.usage)
			}
			if !scanStatsEqual(got.scans, want.scans) {
				t.Fatalf("P=%d B=%d %q: replay changed scan stats:\nlive   %+v\nreplay %+v", v.p, v.b, q, want.scans, got.scans)
			}
		}
	}

	// A workload outside the trace fails loudly instead of fabricating.
	cfg := replayConfig(1, 1)
	cfg.ReplayTrace = loaded
	e := New(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
	for _, name := range w.DomainNames() {
		e.RegisterWorldDomain(w.Domain(name))
	}
	if _, err := e.Query("SELECT name, genre FROM movie"); err == nil {
		t.Fatal("unrecorded query must fail under replay")
	}
}

// usageEquivalent requires every Usage field to reproduce bit-for-bit:
// calls, tokens, SimLatency and SimWall are duration/count sums, and
// SimDollars is accumulated in integer nano-dollars, so none of them depends
// on the order concurrent calls completed in.
func usageEquivalent(a, b llm.Usage) bool { return a == b }

// TestDiskCacheWarmSecondRunCostsNothing pins the warm-cache acceptance
// property: a second engine over the same cache directory answers the same
// workload with zero live model calls, and the scan attributes the disk
// hits.
func TestDiskCacheWarmSecondRunCostsNothing(t *testing.T) {
	w := parWorld()
	dir := t.TempDir()
	query := "SELECT name, capital, population FROM country"
	newDiskEngine := func() *Engine {
		cfg := replayConfig(8, 3)
		cfg.CacheDir = dir
		e := New(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
		for _, name := range w.DomainNames() {
			e.RegisterWorldDomain(w.Domain(name))
		}
		return e
	}

	cold := newDiskEngine()
	coldRes, err := cold.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if coldRes.Usage.CachedCalls != 0 {
		t.Fatalf("cold run served from cache: %+v", coldRes.Usage)
	}
	if s := cold.DiskCacheStats(); s.Entries == 0 || s.Hits != 0 {
		t.Fatalf("cold disk stats: %+v", s)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh engine, fresh process as far as the cache is concerned.
	warm := newDiskEngine()
	defer warm.Close()
	warmRes, err := warm.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Usage.CachedCalls != warmRes.Usage.Calls {
		t.Fatalf("warm run paid live calls: %+v", warmRes.Usage)
	}
	if warmRes.Usage.TotalTokens() != 0 || warmRes.Usage.SimDollars != 0 || warmRes.Usage.SimWall != 0 {
		t.Fatalf("warm run was charged: %+v", warmRes.Usage)
	}
	if renderRows(warmRes.Result.Rows) != renderRows(coldRes.Result.Rows) {
		t.Fatal("disk cache changed result rows")
	}
	var hits, misses int
	var bytes int64
	for _, s := range warmRes.Scans {
		hits += s.DiskHits
		misses += s.DiskMisses
		bytes += s.DiskBytes
	}
	if misses != 0 || hits == 0 || bytes <= 0 {
		t.Fatalf("warm scan disk counters: hits=%d misses=%d bytes=%d", hits, misses, bytes)
	}
	if hits != warmRes.Usage.Calls {
		t.Fatalf("disk hits (%d) must cover every consumed call (%d)", hits, warmRes.Usage.Calls)
	}

	// The warm cache shows up in the planner's estimates.
	plan, err := warm.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "warm-hit=1.00") {
		t.Fatalf("EXPLAIN missing warm-hit discount:\n%s", plan)
	}
}

// TestScanStatsTierAttributionWithBothCaches pins per-scan counting with
// the memory and disk tiers stacked: a disk hit travels out through the
// memory layer's miss path still from Disk, and must land in
// CacheMisses + DiskHits — never CacheHits.
func TestScanStatsTierAttributionWithBothCaches(t *testing.T) {
	w := parWorld()
	dir := t.TempDir()
	query := "SELECT name, capital FROM country"
	newBoth := func() *Engine {
		cfg := replayConfig(1, 1)
		cfg.CacheCapacity = 1 << 16
		cfg.CacheDir = dir
		e := New(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
		for _, name := range w.DomainNames() {
			e.RegisterWorldDomain(w.Domain(name))
		}
		return e
	}
	scanTotals := func(res *QueryResult) (memHits, memMisses, diskHits, diskMisses int) {
		for _, s := range res.Scans {
			memHits += s.CacheHits
			memMisses += s.CacheMisses
			diskHits += s.DiskHits
			diskMisses += s.DiskMisses
		}
		return
	}

	// Cold engine, cold disk: every call misses both tiers.
	e1 := newBoth()
	res, err := e1.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if mh, mm, dh, dm := scanTotals(res); mh != 0 || dh != 0 || mm != res.Usage.Calls || dm != res.Usage.Calls {
		t.Fatalf("cold/cold: mem %d/%d disk %d/%d (calls %d)", mh, mm, dh, dm, res.Usage.Calls)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh engine over the warm directory: the memory tier misses every
	// call, the disk tier serves every call.
	e2 := newBoth()
	defer e2.Close()
	res, err = e2.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if mh, mm, dh, dm := scanTotals(res); mh != 0 || mm != res.Usage.Calls || dh != res.Usage.Calls || dm != 0 {
		t.Fatalf("cold mem/warm disk: mem %d/%d disk %d/%d (calls %d)", mh, mm, dh, dm, res.Usage.Calls)
	}
	// Second query on the same engine: the memory tier now serves
	// everything and the disk index is never consulted.
	res, err = e2.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if mh, mm, dh, dm := scanTotals(res); mh != res.Usage.Calls || mm != 0 || dh != 0 || dm != 0 {
		t.Fatalf("warm mem: mem %d/%d disk %d/%d (calls %d)", mh, mm, dh, dm, res.Usage.Calls)
	}
}

// TestCacheAccountingConsistentUnderConcurrentScans hammers the in-memory
// and persistent caches from concurrent queries at Parallelism 8 with
// capacities small enough to evict constantly, then checks the cross-layer
// invariants: every counted call did exactly one memory-cache lookup, every
// memory miss did exactly one disk lookup, and CountingModel's CachedCalls
// agrees with the cache layers' own hit counters.
func TestCacheAccountingConsistentUnderConcurrentScans(t *testing.T) {
	w := parWorld()
	cfg := replayConfig(8, 3)
	cfg.CacheCapacity = 4 // far below the working set: constant eviction
	cfg.CacheDir = t.TempDir()
	e := New(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
	defer e.Close()
	for _, name := range w.DomainNames() {
		e.RegisterWorldDomain(w.Domain(name))
	}

	queries := []string{
		"SELECT name, capital FROM country",
		"SELECT name, population FROM country",
		"SELECT name, capital, population FROM country",
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := e.Query(queries[(g+i)%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	usage := e.TotalUsage()
	mem := e.CacheStats()
	disk := e.DiskCacheStats()
	if mem.Evictions == 0 {
		t.Fatalf("no eviction pressure: %+v", mem)
	}
	if mem.Size > mem.Capacity {
		t.Fatalf("memory cache exceeded its bound: %+v", mem)
	}
	if got := mem.Hits + mem.Misses; got != usage.Calls {
		t.Fatalf("memory lookups (%d) != counted calls (%d)", got, usage.Calls)
	}
	if got := disk.Hits + disk.Misses; got != mem.Misses {
		t.Fatalf("disk lookups (%d) != memory misses (%d)", got, mem.Misses)
	}
	if got := mem.Hits + disk.Hits; got != usage.CachedCalls {
		t.Fatalf("cache hits (%d mem + %d disk) != cached calls (%d)", mem.Hits, disk.Hits, usage.CachedCalls)
	}
	if disk.LiveBytes > disk.MaxBytes {
		t.Fatalf("disk cache exceeded its bound: %+v", disk)
	}
}
