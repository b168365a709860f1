package bench

import (
	"fmt"

	"llmsql/internal/core"
	"llmsql/internal/llm"
)

// coalesceQueries are the distinct workloads of the overlap scenarios, one
// key-then-attr scan per domain so distinct queries share no prompts.
var coalesceQueries = []string{
	"SELECT name, capital, population FROM country",
	"SELECT title, year FROM movie",
	"SELECT name, revenue FROM company",
	"SELECT name, field FROM laureate",
}

// Table14Coalesce measures cross-session prompt coalescing in the serving
// engine: N session engines over one shared EngineGroup run the same (or
// overlapping) queries, and the group's request coalescer merges identical
// completions so repeats cost no live model traffic. Billed usage is what
// the sessions collectively experienced — identical to solo runs — while
// live usage is what actually reached the base model; the gap is the
// serving layer's saving. Sessions run serially so the report is
// byte-deterministic: the coalescer's memo merges identical requests
// across session boundaries regardless of timing, which is also why a
// serial schedule measures the same saving a concurrent one would get.
func Table14Coalesce(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()

	type scenario struct {
		sessions int
		distinct int // how many of coalesceQueries the sessions cycle over
	}
	scenarios := []scenario{{1, 1}, {4, 1}, {16, 1}, {4, 4}, {16, 4}}
	if o.Scale < 0.5 {
		scenarios = []scenario{{1, 1}, {4, 1}, {4, 4}}
	}

	t := NewTable("sessions", "queries", "billed calls", "live calls", "coalesced",
		"billed tokens", "live tokens", "billed $", "live $")
	identical := true
	for _, sc := range scenarios {
		cfg := keyThenAttrConfig()
		cfg.Parallelism = 2
		cfg.BatchSize = 2
		// The suite-wide CacheDir is deliberately not applied: a shared disk
		// cache would serve the repeats before the coalescer could, hiding
		// the effect under measurement (Table 13 covers it).
		cfg.RecordTrace = o.Record
		cfg.ReplayTrace = o.Replay
		o.applyFaults(&cfg)
		group, err := core.NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, o.Seed+20), cfg)
		if err != nil {
			return Report{}, err
		}
		for _, name := range w.DomainNames() {
			group.RegisterWorldDomain(w.Domain(name))
		}
		firstRows := make(map[string]string)
		for k := 0; k < sc.sessions; k++ {
			e := group.Session()
			q := coalesceQueries[k%sc.distinct]
			res, err := e.Query(q)
			if err != nil {
				return Report{}, err
			}
			rows := renderRows(res.Result.Rows)
			if prev, seen := firstRows[q]; seen {
				identical = identical && rows == prev
			} else {
				firstRows[q] = rows
			}
			group.CloseSession(e)
		}
		gs := group.Stats()
		if err := group.Close(); err != nil {
			return Report{}, err
		}
		// One live fan-out per distinct query needs room for every completion.
		if gs.Coalescer.Evictions != 0 {
			return Report{}, fmt.Errorf("table 14: the coalescer memo evicted %d entries", gs.Coalescer.Evictions)
		}
		t.AddRow(d(sc.sessions), d(sc.distinct),
			d(gs.Billed.Calls), d(gs.Live.Calls), d(gs.Coalescer.Hits()),
			d(gs.Billed.TotalTokens()), d(gs.Live.TotalTokens()),
			fmt.Sprintf("%.4f", gs.Billed.SimDollars), fmt.Sprintf("%.4f", gs.Live.SimDollars))
	}

	extra := fmt.Sprintf("\nEvery repeat session's rows byte-identical to the first run of its query: %v.\n"+
		"Billed = what the sessions were charged (solo-identical); live = what reached the base model.\n", identical)
	return Report{
		ID: "Table 14",
		Title: "Cross-session prompt coalescing in the serving engine " +
			"(key-then-attr, 3 votes, batch 2, parallelism 2, medium model; sessions share one EngineGroup)",
		Body: t.String() + extra,
		CSV:  t.CSV(),
	}, nil
}
