package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"llmsql/internal/llm"
	"llmsql/internal/world"
)

// faultRun captures everything the fault-sweep properties compare.
type faultRun struct {
	rows  string
	usage llm.Usage
	scans []ScanStats
}

// runFaultQuery executes one query on a fresh engine over the shared test
// world. Any query error fails the test: in PartialResults mode a scan
// degrades around exhausted retries instead of surfacing them.
func runFaultQuery(t *testing.T, w *world.World, cfg Config, query string) faultRun {
	t.Helper()
	e := New(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
	for _, name := range w.DomainNames() {
		e.RegisterWorldDomain(w.Domain(name))
	}
	res, err := e.Query(query)
	if err != nil {
		t.Fatalf("query failed: %v", err)
	}
	return faultRun{rows: renderRows(res.Result.Rows), usage: res.Usage, scans: res.Scans}
}

// rowsSubset reports whether got's rows form a sub-multiset of base's —
// every emitted row (with multiplicity) also appears in the fault-free run
// — and whether a proper one, missing at least one base row. Degradation
// may drop rows — never invent, mutate, or duplicate them.
func rowsSubset(base, got string) (subset, proper bool) {
	counts := map[string]int{}
	total := 0
	for _, line := range strings.Split(base, "\n") {
		if line != "" {
			counts[line]++
			total++
		}
	}
	kept := 0
	for _, line := range strings.Split(got, "\n") {
		if line == "" {
			continue
		}
		if counts[line] == 0 {
			return false, false // a row the fault-free run never produced
		}
		counts[line]--
		kept++
	}
	return true, kept < total
}

// checkRowGuarantee classifies got against the fault-free baseline and
// fails the test on any violation of the degradation contract: foreign or
// duplicated rows, rows dropped without a failed key, or failed keys that
// left the output untouched. Returns whether the run was byte-identical.
func checkRowGuarantee(t *testing.T, label, baseRows, gotRows string, scans []ScanStats) bool {
	t.Helper()
	failed := 0
	for _, s := range scans {
		failed += s.KeysFailed
	}
	subset, proper := rowsSubset(baseRows, gotRows)
	switch {
	case gotRows == baseRows:
		if failed != 0 {
			t.Fatalf("%s: %d keys failed yet rows are byte-identical", label, failed)
		}
		return true
	case subset && proper:
		if failed == 0 {
			t.Fatalf("%s: rows dropped without a failed key", label)
		}
		return false
	default:
		t.Fatalf("%s: rows neither byte-identical nor a strict subset of the fault-free run\nbase:\n%sgot:\n%s",
			label, baseRows, gotRows)
		return false
	}
}

// TestFaultSweepRowGuaranteeAndReplayBilling is the fault layer's property
// test: across a sweep of fault seed x Parallelism x BatchSize it asserts
// the two degradation contracts end to end.
//
//  1. Row guarantee — under seeded chaos with PartialResults on, a scan's
//     rows are byte-identical to the fault-free run when retries sufficed
//     and a strict sub-multiset of it when budgets exhausted, with the
//     dropped rows accounted in ScanStats.KeysFailed.
//  2. Replay billing — recording the chaos run's trace and replaying it
//     under the same chaos profile reproduces the billed usage exactly:
//     the fault stream, the retry/backoff/hedge charges, and the recorded
//     completions all re-derive from the same seeds.
func TestFaultSweepRowGuaranteeAndReplayBilling(t *testing.T) {
	w := parWorld()
	const query = "SELECT name, capital, population FROM country"

	// Fault-free baselines, one per batch size: batching reshapes the ATTR
	// prompts, so each BatchSize has its own (deterministic) answer set.
	// Parallelism never changes rows — every variant below compares
	// against the P=1 run of its batch size.
	base := map[int]faultRun{}
	for _, b := range []int{1, 3} {
		base[b] = runFaultQuery(t, w, replayConfig(1, b), query)
		if base[b].rows == "" {
			t.Fatalf("fault-free baseline (B=%d) returned no rows", b)
		}
	}

	profiles := []struct {
		name  string
		chaos llm.ChaosProfile // Seed filled per sweep point
		hedge time.Duration
	}{
		// Moderate: every fault clears inside the default 4-attempt budget
		// (exhaustion probability 0.15^4 ≈ 0.05%), so rows must come back
		// byte-identical; spikes above the hedge threshold exercise the
		// hedged-request path under recording.
		{"moderate", llm.ChaosProfile{TransientRate: 0.10, RateLimitRate: 0.05, SpikeRate: 0.2, SpikeLatency: 2 * time.Second}, time.Second},
		// Harsh: 0.55^4 ≈ 9% of calls exhaust their budget, forcing the
		// strict-subset path.
		{"harsh", llm.ChaosProfile{TransientRate: 0.55}, 0},
	}
	type variant struct{ p, b int }
	variants := []variant{{1, 1}, {4, 1}, {1, 3}, {4, 3}}

	identical, subset, hedgesWon := 0, 0, 0
	for _, seed := range []int64{11, 23, 57} {
		for _, pr := range profiles {
			chaos := pr.chaos
			chaos.Seed = seed
			for _, v := range variants {
				label := fmt.Sprintf("seed=%d %s P=%d B=%d", seed, pr.name, v.p, v.b)
				faultCfg := func() Config {
					cfg := replayConfig(v.p, v.b)
					cfg.Chaos = chaos
					cfg.PartialResults = true
					cfg.Retry.HedgeAfter = pr.hedge
					return cfg
				}

				trace := llm.NewTrace()
				cfg := faultCfg()
				cfg.RecordTrace = trace
				live := runFaultQuery(t, w, cfg, query)
				if checkRowGuarantee(t, label, base[v.b].rows, live.rows, live.scans) {
					identical++
				} else {
					subset++
				}
				for _, s := range live.scans {
					hedgesWon += s.HedgesWon
				}

				replayCfg := faultCfg()
				replayCfg.ReplayTrace = trace
				rep := runFaultQuery(t, w, replayCfg, query)
				if rep.rows != live.rows {
					t.Fatalf("%s: replay changed rows", label)
				}
				if !usageEquivalent(rep.usage, live.usage) {
					t.Fatalf("%s: billed usage under replay diverged:\nlive   %+v\nreplay %+v", label, live.usage, rep.usage)
				}
				if !scanStatsEqual(rep.scans, live.scans) {
					t.Fatalf("%s: replay changed scan stats:\nlive   %+v\nreplay %+v", label, live.scans, rep.scans)
				}
			}
		}
	}
	// The sweep must exercise every contract branch, or the properties
	// above were vacuous.
	if identical == 0 || subset == 0 {
		t.Fatalf("sweep covered %d identical and %d subset runs; need both", identical, subset)
	}
	if hedgesWon == 0 {
		t.Fatal("no hedge won across the sweep; the spike profile is not exercising hedged requests")
	}
}

// TestFaultSweepCoalescingSessions extends the sweep to the serving stack:
// sessions of one EngineGroup share a coalescer, retrier and chaos
// injector, and each session's result must independently satisfy the
// identical-or-strict-subset guarantee. Running the whole scenario twice
// must reproduce every session byte-for-byte — a failed leader's
// promotion, the retry charges and the memoized answers are all
// deterministic.
func TestFaultSweepCoalescingSessions(t *testing.T) {
	w := parWorld()
	const query = "SELECT name, capital, population FROM country"
	base := runFaultQuery(t, w, groupConfig(), query)

	const sessions = 3
	for _, tc := range []struct {
		seed int64
		rate float64
	}{{5, 0.30}, {19, 0.45}} {
		runGroup := func() []faultRun {
			cfg := groupConfig()
			cfg.Chaos = llm.ChaosProfile{Seed: tc.seed, TransientRate: tc.rate}
			cfg.PartialResults = true
			g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			for _, name := range w.DomainNames() {
				g.RegisterWorldDomain(w.Domain(name))
			}
			out := make([]faultRun, 0, sessions)
			for i := 0; i < sessions; i++ {
				e := g.Session()
				res, err := e.Query(query)
				if err != nil {
					t.Fatalf("seed=%d session %d: %v", tc.seed, i, err)
				}
				out = append(out, faultRun{rows: renderRows(res.Result.Rows), usage: res.Usage, scans: res.Scans})
				g.CloseSession(e)
			}
			return out
		}

		first := runGroup()
		retries := 0
		for i, s := range first {
			checkRowGuarantee(t, fmt.Sprintf("seed=%d session %d", tc.seed, i), base.rows, s.rows, s.scans)
			for _, sc := range s.scans {
				retries += sc.RetriesSpent
			}
		}
		if retries == 0 {
			t.Fatalf("seed=%d: no retries spent across %d sessions; chaos is not reaching the group stack", tc.seed, sessions)
		}

		second := runGroup()
		for i := range first {
			if second[i].rows != first[i].rows {
				t.Fatalf("seed=%d session %d: repeat group run changed rows", tc.seed, i)
			}
			if !usageEquivalent(second[i].usage, first[i].usage) {
				t.Fatalf("seed=%d session %d: repeat group run changed usage:\nfirst  %+v\nsecond %+v",
					tc.seed, i, first[i].usage, second[i].usage)
			}
			if !scanStatsEqual(second[i].scans, first[i].scans) {
				t.Fatalf("seed=%d session %d: repeat group run changed scan stats:\nfirst  %+v\nsecond %+v",
					tc.seed, i, first[i].scans, second[i].scans)
			}
		}
	}
}

// TestFaultRowsIndependentOfParallelism: under the default retry policy a
// faulty run's rows are a function of the fault stream alone, never of the
// order concurrent calls finish in. Every attribute call gets one attempt
// against a 60% transient-error rate, so runs of exhausted calls are long
// and frequent; rows at Parallelism 4 must equal rows at Parallelism 1 on
// every one of ten runs.
func TestFaultRowsIndependentOfParallelism(t *testing.T) {
	w := world.Generate(world.Config{Seed: 13, Countries: 120, Movies: 10, Laureates: 10, Companies: 10})
	const query = "SELECT name, capital, population FROM country"
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Temperature = 0
	cfg.Chaos = llm.ChaosProfile{Seed: 2, TransientRate: 0.6}
	cfg.Retry.MaxAttempts = 1
	cfg.PartialResults = true
	run := func(parallelism int) faultRun {
		c := cfg
		c.Parallelism = parallelism
		return runFaultQuery(t, w, c, query)
	}
	want := run(1)
	failed := 0
	for _, s := range want.scans {
		failed += s.KeysFailed
	}
	if want.rows == "" || failed == 0 {
		t.Fatalf("serial run kept rows %q with %d failed keys; need both rows and failures", want.rows, failed)
	}
	for i := 0; i < 10; i++ {
		if got := run(4); got.rows != want.rows {
			t.Fatalf("run %d: rows at Parallelism 4 differ from Parallelism 1:\nP=1:\n%sP=4:\n%s", i, want.rows, got.rows)
		}
	}
}

// TestMinConfidenceKeepsSubsetGuarantee pins the confidence filter under
// degradation: a failed enumeration round would shrink the rounds an
// entity's appearances are divided by, so keys the fault-free run drops
// could pass. With MinConfidence set such a round fails the query instead.
// The seeds are ones where the degraded round used to let foreign rows
// through; each run must now be an error or a sub-multiset of the
// fault-free rows.
func TestMinConfidenceKeepsSubsetGuarantee(t *testing.T) {
	w := testWorld()
	const query = "SELECT name, capital FROM country"
	for _, strategy := range []Strategy{StrategyFullTable, StrategyKeyThenAttr} {
		cfg := DefaultConfig()
		cfg.Strategy = strategy
		cfg.MinConfidence = 0.5
		cfg.StableRounds = 8
		base, err := newTestEngine(t, w, llm.ProfileSmall, cfg).Query(query)
		if err != nil {
			t.Fatal(err)
		}
		baseRows := renderRows(base.Result.Rows)
		for _, seed := range []int64{3, 5, 8, 13, 14, 18, 19, 23, 26, 29, 38, 39} {
			faulty := cfg
			faulty.PartialResults = true
			faulty.Chaos = llm.ChaosProfile{Seed: seed, TransientRate: 0.4}
			faulty.Retry.MaxAttempts = 1
			res, err := newTestEngine(t, w, llm.ProfileSmall, faulty).Query(query)
			if err != nil {
				if !llm.Degradable(err) {
					t.Fatalf("%v seed %d: %v", strategy, seed, err)
				}
				continue
			}
			if subset, _ := rowsSubset(baseRows, renderRows(res.Result.Rows)); !subset {
				t.Errorf("%v seed %d: rows the fault-free run does not produce:\nbase:\n%sgot:\n%s",
					strategy, seed, baseRows, renderRows(res.Result.Rows))
			}
		}
	}
}
