package bench

import (
	"fmt"
	"strings"

	"llmsql/internal/llm"
)

// faultQuery is the fault-sweep workload: a key-then-attr country scan,
// the pipeline whose graceful degradation the sweep exercises.
const faultQuery = "SELECT name, capital, population FROM country"

// Table15FaultSweep runs one scan under increasingly hostile injected
// fault regimes — transient errors, rate limits, malformed completions,
// latency spikes — with the retry layer and PartialResults degradation
// on, and checks the recovery contract row by row:
//
//   - every variant completes (zero failed queries under chaos);
//   - when retries absorb every fault the rows are byte-identical to the
//     fault-free run;
//   - when a call exhausts its budget the result is a strict subset of
//     the fault-free rows (dropped keys, never corrupted ones);
//   - a hedged variant shows duplicate requests beating latency spikes.
//
// The fault stream is seeded from the suite seed, so the whole table is
// byte-deterministic (the chaos-check gate replays it under pinned seeds).
func Table15FaultSweep(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()

	type variant struct {
		name  string
		chaos llm.ChaosProfile
		retry llm.RetryPolicy
	}
	seed := o.Seed + 30
	variants := []variant{
		{"fault-free", llm.ChaosProfile{}, llm.RetryPolicy{}},
		{"5% errors", llm.ChaosProfile{Seed: seed, TransientRate: 0.05}, llm.RetryPolicy{}},
		{"10% errors", llm.ChaosProfile{Seed: seed, TransientRate: 0.10}, llm.RetryPolicy{}},
		{"20% errors", llm.ChaosProfile{Seed: seed, TransientRate: 0.20}, llm.RetryPolicy{}},
		{"10% errors + 10% rate limits", llm.ChaosProfile{Seed: seed, TransientRate: 0.10, RateLimitRate: 0.10}, llm.RetryPolicy{}},
		{"10% malformed", llm.ChaosProfile{Seed: seed, MalformedRate: 0.10}, llm.RetryPolicy{}},
		{"60% errors (overwhelmed)", llm.ChaosProfile{Seed: seed, TransientRate: 0.60}, llm.RetryPolicy{}},
		// No comma in the variant name: it is the CSV row label, and
		// CSV() joins fields on commas without quoting.
		{"30% spikes (hedged)", llm.ChaosProfile{Seed: seed, SpikeRate: 0.30, SpikeLatency: 2e9},
			llm.RetryPolicy{HedgeAfter: 1e9}},
	}

	var baseRows string
	contract := true
	t := NewTable("variant", "calls", "faults injected", "retries", "hedges won",
		"keys failed", "tokens", "wall latency", "rows vs fault-free")
	for i, v := range variants {
		cfg := keyThenAttrConfig()
		cfg.Parallelism = 4
		cfg.Chaos = v.chaos
		cfg.Retry = v.retry
		cfg.PartialResults = true
		e := o.newEngine(w, llm.ProfileMedium, cfg, o.Seed+15)
		res, err := e.Query(faultQuery)
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", v.name, err)
		}
		rows := renderRows(res.Result.Rows)
		if i == 0 {
			baseRows = rows
		}
		retries, keysFailed, hedgesWon := 0, 0, 0
		for _, s := range res.Scans {
			retries += s.RetriesSpent
			keysFailed += s.KeysFailed
			hedgesWon += s.HedgesWon
		}
		cs := e.ChaosStats()
		faults := cs.Transient + cs.RateLimited + cs.Malformed + cs.Spikes
		rel := rowRelation(baseRows, rows, keysFailed)
		contract = contract && rel != "VIOLATION"
		t.AddRow(v.name, d(res.Usage.Calls), d(faults), d(retries), d(hedgesWon),
			d(keysFailed), d(res.Usage.TotalTokens()), res.Usage.SimWall.Round(1e6).String(), rel)
	}

	extra := fmt.Sprintf("\nRecovery contract (identical when retries suffice, strict subset when keys drop) held for every variant: %v.\n"+
		"Retries and hedge losers are billed (tokens and wall grow with the fault rate); injected faults never corrupt a row.\n", contract)
	return Report{
		ID: "Table 15",
		Title: "Fault injection and graceful degradation " +
			"(key-then-attr, 3 votes, parallelism 4, medium model; seeded chaos, retries on, partial results on)",
		Body: t.String() + extra,
		CSV:  t.CSV(),
	}, nil
}

// rowRelation classifies a degraded run's rows against the fault-free
// run's: byte-identical, a strict subset (only whole rows missing), or a
// contract violation (a row the fault-free run never produced, or an
// identical result that still reported failed keys).
func rowRelation(base, got string, keysFailed int) string {
	if got == base {
		if keysFailed > 0 {
			return "VIOLATION"
		}
		return "identical"
	}
	baseSet := make(map[string]int)
	for _, r := range strings.Split(base, "\n") {
		baseSet[r]++
	}
	dropped := 0
	for _, r := range strings.Split(got, "\n") {
		if baseSet[r] == 0 {
			return "VIOLATION"
		}
		baseSet[r]--
	}
	for _, n := range baseSet {
		dropped += n
	}
	return fmt.Sprintf("subset (%d rows dropped)", dropped)
}
