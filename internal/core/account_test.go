package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"llmsql/internal/llm"
)

// accountQueries are single-table key-then-attr queries over testWorld, one
// per domain.
var accountQueries = []string{
	"SELECT name, capital, population FROM country",
	"SELECT title, director, year FROM movie",
	"SELECT name, field FROM laureate",
	"SELECT name, sector, employees FROM company",
}

func accountConfig(parallelism int) Config {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Parallelism = parallelism
	return cfg
}

// concurrently runs f(0..n-1) on n goroutines released together, so their
// queries overlap on the engine.
func concurrently(n int, f func(i int)) {
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			f(i)
		}(i)
	}
	close(start)
	wg.Wait()
}

// nanoUSD reads a Usage's dollars back in the whole nano-dollars they were
// billed in.
func nanoUSD(u llm.Usage) int64 { return int64(math.Round(u.SimDollars * 1e9)) }

// sameUsage compares two usages, dollars to the nano-dollar: a sum of
// per-query float dollars may differ from the integer total in the last bit.
func sameUsage(a, b llm.Usage) bool {
	if nanoUSD(a) != nanoUSD(b) {
		return false
	}
	a.SimDollars, b.SimDollars = 0, 0
	return a == b
}

// TestConcurrentQueriesAccountSeparately: queries running at once on one
// engine — through Engine.Query, and through one Stmt shared by every
// goroutine — each report the Usage and Scans they report run alone, and
// the engine's TotalUsage is the sum of those solo runs. No completion cache
// is configured, so nothing one query does can change what another costs.
func TestConcurrentQueriesAccountSeparately(t *testing.T) {
	w := testWorld()
	const trials = 4
	for _, par := range []int{1, 4} {
		cfg := accountConfig(par)
		// Solo references, each query on an engine of its own.
		solo := make([]*QueryResult, len(accountQueries))
		var want llm.Usage
		for i, q := range accountQueries {
			res, err := newTestEngine(t, w, llm.ProfileMedium, cfg).Query(q)
			if err != nil {
				t.Fatal(err)
			}
			solo[i] = res
			want.Add(res.Usage)
		}
		// check compares each got[i], labelled labels[i], with solo[i].
		check := func(how string, trial int, e *Engine, labels []string, got []*QueryResult, errs []error) {
			t.Helper()
			for i, res := range got {
				if errs[i] != nil {
					t.Fatalf("Parallelism %d, %s, trial %d: %q: %v", par, how, trial, labels[i], errs[i])
				}
				if !sameUsage(res.Usage, solo[i].Usage) {
					t.Errorf("Parallelism %d, %s, trial %d: %q billed\n%+v\nalone it bills\n%+v", par, how, trial, labels[i], res.Usage, solo[i].Usage)
				}
				if !reflect.DeepEqual(res.Scans, solo[i].Scans) {
					t.Errorf("Parallelism %d, %s, trial %d: %q reported scans\n%+v\nalone it reports\n%+v", par, how, trial, labels[i], res.Scans, solo[i].Scans)
				}
			}
			if total := e.TotalUsage(); !sameUsage(total, want) {
				t.Errorf("Parallelism %d, %s, trial %d: TotalUsage\n%+v\nwant the solo runs' sum\n%+v", par, how, trial, total, want)
			}
		}
		for trial := 0; trial < trials; trial++ {
			e := newTestEngine(t, w, llm.ProfileMedium, cfg)
			got, errs := make([]*QueryResult, len(accountQueries)), make([]error, len(accountQueries))
			concurrently(len(accountQueries), func(i int) {
				got[i], errs[i] = e.Query(accountQueries[i])
			})
			check("Engine.Query", trial, e, accountQueries, got, errs)
		}

		// One prepared handle shared by every goroutine, each binding its
		// own continent.
		const stmtSQL = "SELECT name, capital FROM country WHERE continent = ?"
		continents := []string{"Europe", "Asia", "Africa", "Americas"}
		soloStmt := make([]*QueryResult, len(continents))
		want = llm.Usage{}
		for i, c := range continents {
			res, err := newTestEngine(t, w, llm.ProfileMedium, cfg).Query(stmtSQL, c)
			if err != nil {
				t.Fatal(err)
			}
			soloStmt[i] = res
			want.Add(res.Usage)
		}
		solo = soloStmt
		for trial := 0; trial < trials; trial++ {
			e := newTestEngine(t, w, llm.ProfileMedium, cfg)
			stmt, err := e.Prepare(stmtSQL)
			if err != nil {
				t.Fatal(err)
			}
			got, errs := make([]*QueryResult, len(continents)), make([]error, len(continents))
			concurrently(len(continents), func(i int) {
				got[i], errs[i] = stmt.Query(continents[i])
			})
			check("one shared Stmt", trial, e, continents, got, errs)
		}
	}
}

// TestViewBuildBesideConcurrentQueries: a materialized view's manifest and
// live spend are what its own defining query completed, even while other
// queries run on the engine during the CREATE and the REFRESH.
func TestViewBuildBesideConcurrentQueries(t *testing.T) {
	w := testWorld()
	cfg := accountConfig(4)
	const def = "SELECT name, capital FROM country"
	type build struct {
		reqs          []llm.CompletionRequest
		calls, tokens int
	}
	built := func(e *Engine) build {
		t.Helper()
		reqs, err := e.ViewRequests("v")
		if err != nil {
			t.Fatal(err)
		}
		info, _ := e.View("v")
		return build{reqs, info.LastLiveCalls, info.LastLiveTokens}
	}
	ref := newTestEngine(t, w, llm.ProfileMedium, cfg)
	if err := ref.Exec("CREATE MATERIALIZED VIEW v AS " + def); err != nil {
		t.Fatal(err)
	}
	want := built(ref)
	if len(want.reqs) == 0 || want.calls == 0 {
		t.Fatalf("the solo build recorded nothing: %+v", want)
	}

	e := newTestEngine(t, w, llm.ProfileMedium, cfg)
	for _, stmt := range []string{"CREATE MATERIALIZED VIEW v AS " + def, "REFRESH MATERIALIZED VIEW v"} {
		errs := make([]error, len(accountQueries))
		concurrently(len(accountQueries), func(i int) {
			if i == 0 {
				errs[i] = e.Exec(stmt)
				return
			}
			_, errs[i] = e.Query(accountQueries[i])
		})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s, goroutine %d: %v", stmt, i, err)
			}
		}
		if got := built(e); !reflect.DeepEqual(got, want) {
			t.Errorf("%s beside other queries recorded %d requests, %d live calls, %d live tokens; alone: %d, %d, %d",
				stmt, len(got.reqs), got.calls, got.tokens, len(want.reqs), want.calls, want.tokens)
		}
	}
}
