package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/rel"
	"llmsql/internal/world"
)

// parWorld returns a small synthetic world for the parallel-pipeline tests.
func parWorld() *world.World {
	return world.Generate(world.Config{Seed: 7, Countries: 30, Movies: 15, Laureates: 10, Companies: 10})
}

func worldEngine(w *world.World, cfg Config) *Engine {
	e := New(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
	for _, name := range w.DomainNames() {
		e.RegisterWorldDomain(w.Domain(name))
	}
	return e
}

// renderRows serializes rows byte-exactly for comparison.
func renderRows(rows []rel.Row) string {
	var b strings.Builder
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// scanStatsEqual compares every ScanStats field — the determinism contract
// says parallelism changes none of them.
func scanStatsEqual(a, b []ScanStats) bool { return reflect.DeepEqual(a, b) }

func TestKeyThenAttrDeterministicAcrossParallelism(t *testing.T) {
	w := parWorld()
	query := "SELECT name, capital, population FROM country"
	run := func(parallelism int) (*QueryResult, error) {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyKeyThenAttr
		cfg.Votes = 3
		cfg.MaxRounds = 3
		cfg.Temperature = 0.7
		cfg.Parallelism = parallelism
		return worldEngine(w, cfg).Query(query)
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		par, err := run(p)
		if err != nil {
			t.Fatal(err)
		}
		if renderRows(par.Result.Rows) != renderRows(serial.Result.Rows) {
			t.Fatalf("parallelism %d changed result rows", p)
		}
		if !scanStatsEqual(par.Scans, serial.Scans) {
			t.Fatalf("parallelism %d changed scan stats:\nserial %+v\npar    %+v", p, serial.Scans, par.Scans)
		}
	}
}

func TestFullTableDeterministicAcrossParallelism(t *testing.T) {
	w := parWorld()
	query := "SELECT name, capital FROM country"
	run := func(parallelism int) (*QueryResult, error) {
		cfg := DefaultConfig()
		cfg.Temperature = 0.8
		cfg.MaxRounds = 6
		cfg.Parallelism = parallelism
		return worldEngine(w, cfg).Query(query)
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(par.Result.Rows) != renderRows(serial.Result.Rows) {
		t.Fatal("parallel full-table scan changed result rows")
	}
	if !scanStatsEqual(par.Scans, serial.Scans) {
		t.Fatalf("parallel full-table scan changed stats:\nserial %+v\npar    %+v", serial.Scans, par.Scans)
	}
	// Speculative prefetch may issue more calls than the serial path
	// consumed, but never fewer.
	if par.Usage.Calls < serial.Usage.Calls {
		t.Fatalf("parallel calls %d < serial %d", par.Usage.Calls, serial.Usage.Calls)
	}
}

func TestPagedStrategyStaysSerial(t *testing.T) {
	// Paged rounds form a dependency chain; Parallelism must not change
	// calls, rows or stats.
	w := parWorld()
	run := func(parallelism int) (*QueryResult, error) {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyPaged
		cfg.Temperature = 0
		cfg.MaxRounds = 8
		cfg.Parallelism = parallelism
		return worldEngine(w, cfg).Query("SELECT name FROM country")
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if par.Usage.Calls != serial.Usage.Calls {
		t.Fatalf("paged calls changed: %d vs %d", par.Usage.Calls, serial.Usage.Calls)
	}
	if renderRows(par.Result.Rows) != renderRows(serial.Result.Rows) {
		t.Fatal("paged rows changed")
	}
}

func TestParallelismShortensCriticalPath(t *testing.T) {
	w := parWorld()
	query := "SELECT name, capital, population FROM country"
	wallAt := func(parallelism int) (*QueryResult, error) {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyKeyThenAttr
		cfg.Votes = 3
		cfg.MaxRounds = 2
		cfg.Temperature = 0.7
		cfg.Parallelism = parallelism
		return worldEngine(w, cfg).Query(query)
	}
	serial, err := wallAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Usage.SimWall != serial.Usage.SimLatency {
		t.Fatalf("serial wall %v must equal total %v", serial.Usage.SimWall, serial.Usage.SimLatency)
	}
	par, err := wallAt(8)
	if err != nil {
		t.Fatal(err)
	}
	if par.Usage.SimWall >= serial.Usage.SimWall/2 {
		t.Fatalf("wall at parallelism 8 (%v) not even 2x better than serial (%v)",
			par.Usage.SimWall, serial.Usage.SimWall)
	}
	if par.Usage.SimWall <= 0 {
		t.Fatal("wall latency must be positive")
	}
}

func TestCacheScanStatsDeterministicAcrossParallelism(t *testing.T) {
	// Cache counters in ScanStats come from the consumed responses'
	// provenance, so a cold query must report identical stats at any
	// parallelism even though speculative prefetch touches the cache.
	w := parWorld()
	run := func(p int) (*QueryResult, error) {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyKeyThenAttr
		cfg.Votes = 2
		cfg.MaxRounds = 3
		cfg.Temperature = 0.7
		cfg.Parallelism = p
		cfg.CacheCapacity = 4096
		return worldEngine(w, cfg).Query("SELECT name, capital FROM country")
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(par.Result.Rows) != renderRows(serial.Result.Rows) {
		t.Fatal("cache+parallelism changed result rows")
	}
	if !scanStatsEqual(par.Scans, serial.Scans) {
		t.Fatalf("cache+parallelism changed scan stats:\nserial %+v\npar    %+v", serial.Scans, par.Scans)
	}
	if serial.Scans[0].CacheMisses == 0 {
		t.Fatalf("cold scan must record misses: %+v", serial.Scans)
	}
}

func TestConcurrentQueriesOneEngine(t *testing.T) {
	// Many goroutines share one engine with a parallel scan pipeline and a
	// bounded cache — meaningful under -race.
	w := parWorld()
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Votes = 2
	cfg.MaxRounds = 2
	cfg.Temperature = 0.7
	cfg.Parallelism = 4
	cfg.CacheCapacity = 256
	e := worldEngine(w, cfg)

	want, err := e.Query("SELECT name, capital FROM country")
	if err != nil {
		t.Fatal(err)
	}
	wantRows := renderRows(want.Result.Rows)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Query("SELECT name, capital FROM country")
			if err != nil {
				errs <- err
				return
			}
			if got := renderRows(res.Result.Rows); got != wantRows {
				errs <- fmt.Errorf("concurrent query diverged")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if e.CacheStats().Hits == 0 {
		t.Fatal("repeated identical queries must hit the cache")
	}
}

func TestRunTasksSerialAndParallel(t *testing.T) {
	for _, p := range []int{1, 4} {
		got := make([]int, 100)
		if err := runTasks(p, 100, func(i int) error {
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("p=%d slot %d: %d", p, i, v)
			}
		}
	}
}

func TestRunTasksReturnsLowestIndexedError(t *testing.T) {
	for _, p := range []int{1, 8} {
		err := runTasks(p, 50, func(i int) error {
			if i >= 10 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 10 failed" {
			t.Fatalf("p=%d: want lowest-indexed error, got %v", p, err)
		}
	}
}

func TestCacheWarmSecondQueryIsFree(t *testing.T) {
	w := parWorld()
	cfg := DefaultConfig()
	cfg.Temperature = 0 // single deterministic round: identical prompts
	cfg.CacheCapacity = -1
	e := worldEngine(w, cfg)
	query := "SELECT name, capital FROM country"
	cold, err := e.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Usage.SimLatency != 0 || warm.Usage.TotalTokens() != 0 {
		t.Fatalf("warm query must be free: %+v", warm.Usage)
	}
	if warm.Usage.CachedCalls != warm.Usage.Calls || warm.Usage.Calls == 0 {
		t.Fatalf("warm calls must all be cached: %+v", warm.Usage)
	}
	if cold.Usage.SimLatency <= 0 {
		t.Fatalf("cold query must cost latency: %+v", cold.Usage)
	}
	if len(warm.Scans) != 1 || warm.Scans[0].CacheHits == 0 || warm.Scans[0].CacheMisses != 0 {
		t.Fatalf("warm scan cache stats: %+v", warm.Scans)
	}
	if renderRows(cold.Result.Rows) != renderRows(warm.Result.Rows) {
		t.Fatal("cache changed results")
	}
}

// BenchmarkKeyThenAttrScan times the attribute fan-out's hot path: a
// whole-table key-then-attr scan at 3 votes, 4 workers and batch 1 (the
// real-clock benchmark's fanout_scan shape) over a warm completion cache, so
// the scan is what is measured, not the model.
func BenchmarkKeyThenAttrScan(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Votes = 3
	cfg.Parallelism = 4
	cfg.BatchSize = 1
	benchWarmScan(b, cfg)
}

// BenchmarkCachedFullTableScan times a repeated full-table scan — LIST
// prompts over up to 8 sampling rounds at temperature 0.7, the real-clock
// benchmark's hot_repeat shape — whose every completion the session cache
// and whose enumeration the store's memo already hold.
func BenchmarkCachedFullTableScan(b *testing.B) {
	benchWarmScan(b, DefaultConfig())
}

// BenchmarkCachedPagedScan times the same scan paged. Each page's prompt
// depends on the pages before it, so the memo holds no paged enumeration:
// a warm paged scan parses and merges every page again.
func BenchmarkCachedPagedScan(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyPaged
	benchWarmScan(b, cfg)
}

// benchWarmScan times warmScan's scan under cfg.
func benchWarmScan(b *testing.B, cfg Config) {
	scan := warmScan(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
}

// TestCachedFullTableScanAllocs guards BenchmarkCachedFullTableScan's
// allocations: a warm scan replays its memoised enumeration, 21 allocations
// on Go 1.24 (22 under -race). Parsing and merging every round again made
// it 45.
func TestCachedFullTableScanAllocs(t *testing.T) {
	const maxAllocs = 24
	if n := testing.AllocsPerRun(50, warmScan(t, DefaultConfig())); n > maxAllocs {
		t.Fatalf("warm full-table scan: %v allocs, want at most %d", n, maxAllocs)
	}
}

// warmScan returns a scan of country's name, capital and population under
// cfg over a warm completion cache, so the scan is what is measured, not the
// model.
func warmScan(tb testing.TB, cfg Config) func() {
	w := parWorld()
	s := NewLLMStore(llm.NewCache(llm.NewSynthLM(w, llm.ProfileMedium, 7)), cfg)
	d := w.Domain("country")
	s.Register(VirtualTable{Name: d.Name, Description: d.Description, Schema: d.Schema})
	req := exec.ScanRequest{Table: d.Name, Alias: d.Name, Schema: d.Schema, Needed: make([]bool, d.Schema.Len())}
	for _, c := range []string{"name", "capital", "population"} {
		req.Needed[d.Schema.IndexOf(c)] = true
	}
	scan := func() {
		it, err := s.Scan(req)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := exec.Drain(it); err != nil {
			tb.Fatal(err)
		}
	}
	scan() // warm the cache
	return scan
}
