package bench

import (
	"fmt"

	"llmsql/internal/core"
	"llmsql/internal/llm"
	"llmsql/internal/metrics"
	"llmsql/internal/world"
)

// Table2RetrievalQuality measures full-relation retrieval per domain:
// SELECT * against ground truth, medium model, default engine.
func Table2RetrievalQuality(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()
	db, err := world.LoadDB(w)
	if err != nil {
		return Report{}, err
	}
	e := o.newEngine(w, llm.ProfileMedium, core.DefaultConfig(), o.Seed+1)

	t := NewTable("domain", "truth", "retrieved", "precision", "recall", "F1", "attr-acc", "halluc")
	for _, name := range w.DomainNames() {
		m, _, err := scoreAgainstBaseline(e, db, "SELECT * FROM "+name, metrics.Options{NumTolerance: attrTolerance})
		if err != nil {
			return Report{}, err
		}
		t.AddRow(name, d(m.TruthRows), d(m.ResultRows),
			f3(m.Precision()), f3(m.Recall()), f3(m.F1()),
			f3(m.AttrAccuracy()), pct(m.HallucinationRate()))
	}
	return Report{
		ID:    "Table 2",
		Title: "Retrieval quality of full-relation scans per domain (medium model, full-table strategy)",
		Body:  t.String(),
	}, nil
}

// classQuery is one workload query with its scoring mode.
type classQuery struct {
	class string
	query string
	// scalar marks single-value aggregate queries scored by relative
	// error instead of set metrics.
	scalar bool
	// tol is the attribute tolerance for set-scored queries.
	tol float64
}

func queryClassSuite() []classQuery {
	return []classQuery{
		{class: "selection", query: "SELECT name, population FROM country WHERE population > 50", tol: attrTolerance},
		{class: "selection", query: "SELECT title, year FROM movie WHERE year >= 2000", tol: attrTolerance},
		{class: "selection", query: "SELECT name, revenue FROM company WHERE revenue > 10", tol: attrTolerance},
		{class: "projection", query: "SELECT name, capital FROM country", tol: attrTolerance},
		{class: "projection", query: "SELECT title, director FROM movie", tol: attrTolerance},
		{class: "join", query: "SELECT m.title, c.continent FROM movie m JOIN country c ON m.country = c.name", tol: attrTolerance},
		{class: "join", query: "SELECT k.name, c.capital FROM company k JOIN country c ON k.country = c.name", tol: attrTolerance},
		{class: "aggregate", query: "SELECT COUNT(*) FROM country", scalar: true},
		{class: "aggregate", query: "SELECT AVG(population) FROM country", scalar: true},
		{class: "aggregate", query: "SELECT MAX(year) FROM movie", scalar: true},
		{class: "group-by", query: "SELECT continent, COUNT(*) FROM country GROUP BY continent", tol: 0.30},
		{class: "group-by", query: "SELECT genre, COUNT(*) FROM movie GROUP BY genre", tol: 0.30},
	}
}

// Table3QueryClasses scores the workload suite per query class.
func Table3QueryClasses(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()
	db, err := world.LoadDB(w)
	if err != nil {
		return Report{}, err
	}
	e := o.newEngine(w, llm.ProfileMedium, core.DefaultConfig(), o.Seed+2)

	type agg struct {
		f1s, errs []float64
		n         int
	}
	byClass := map[string]*agg{}
	var order []string
	for _, cq := range queryClassSuite() {
		a, ok := byClass[cq.class]
		if !ok {
			a = &agg{}
			byClass[cq.class] = a
			order = append(order, cq.class)
		}
		a.n++
		if cq.scalar {
			truth, err := baseline(db, cq.query)
			if err != nil {
				return Report{}, err
			}
			got, err := e.Query(cq.query)
			if err != nil {
				return Report{}, err
			}
			a.errs = append(a.errs, metrics.ScalarError(scalarAnswer(got.Result), scalarAnswer(truth)))
			continue
		}
		m, _, err := scoreAgainstBaseline(e, db, cq.query, metrics.Options{NumTolerance: cq.tol})
		if err != nil {
			return Report{}, err
		}
		a.f1s = append(a.f1s, m.F1())
	}

	t := NewTable("class", "queries", "mean F1", "mean rel. error")
	for _, class := range order {
		a := byClass[class]
		f1 := "-"
		if len(a.f1s) > 0 {
			f1 = f3(metrics.Mean(a.f1s))
		}
		re := "-"
		if len(a.errs) > 0 {
			re = f3(metrics.Mean(a.errs))
		}
		t.AddRow(class, d(a.n), f1, re)
	}
	return Report{
		ID:    "Table 3",
		Title: "Answer quality by query class (medium model, default engine)",
		Body:  t.String(),
	}, nil
}

// Table4Strategies compares the prompt decomposition strategies on the
// country domain: retrieval quality versus token cost.
func Table4Strategies(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()
	db, err := world.LoadDB(w)
	if err != nil {
		return Report{}, err
	}

	t := NewTable("strategy", "precision", "recall", "F1", "attr-acc", "prompts", "tokens")
	for _, strat := range []core.Strategy{core.StrategyFullTable, core.StrategyPaged, core.StrategyKeyThenAttr} {
		cfg := core.DefaultConfig()
		cfg.Strategy = strat
		cfg.MaxRounds = 6
		e := o.newEngine(w, llm.ProfileMedium, cfg, o.Seed+3)
		m, usage, err := scoreAgainstBaseline(e, db, "SELECT name, capital, population FROM country", metrics.Options{NumTolerance: attrTolerance})
		if err != nil {
			return Report{}, err
		}
		// usage.Calls equals prompt count for a single-scan query.
		prompts := usage.Calls
		t.AddRow(strat.String(), f3(m.Precision()), f3(m.Recall()), f3(m.F1()),
			f3(m.AttrAccuracy()), d(prompts), d(usage.TotalTokens()))
	}
	return Report{
		ID:    "Table 4",
		Title: "Prompt strategy comparison on country(name, capital, population) (medium model)",
		Body:  t.String(),
	}, nil
}

// Table5Voting sweeps the self-consistency factor k for attribute
// retrieval with the key-then-attr strategy on a weak model.
func Table5Voting(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()
	db, err := world.LoadDB(w)
	if err != nil {
		return Report{}, err
	}

	t := NewTable("votes k", "attr-acc", "precision", "F1", "tokens")
	for _, k := range []int{1, 3, 5, 7} {
		cfg := core.DefaultConfig()
		cfg.Strategy = core.StrategyKeyThenAttr
		cfg.Votes = k
		cfg.Temperature = 0.8
		cfg.MaxRounds = 3
		e := o.newEngine(w, llm.ProfileSmall, cfg, o.Seed+4)
		m, usage, err := scoreAgainstBaseline(e, db, "SELECT name, capital, population FROM country", metrics.Options{NumTolerance: attrTolerance})
		if err != nil {
			return Report{}, err
		}
		t.AddRow(d(k), f3(m.AttrAccuracy()), f3(m.Precision()), f3(m.F1()), d(usage.TotalTokens()))
	}
	return Report{
		ID:    "Table 5",
		Title: "Self-consistency voting for attribute retrieval (small model, key-then-attr)",
		Body:  t.String(),
	}, nil
}

// Table6VsBaseline runs identical SQL on the LLM engine and the row store,
// reporting answer quality and cost side by side.
func Table6VsBaseline(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()
	db, err := world.LoadDB(w)
	if err != nil {
		return Report{}, err
	}
	e := o.newEngine(w, llm.ProfileMedium, core.DefaultConfig(), o.Seed+5)

	t := NewTable("class", "query", "F1/err", "LLM tokens", "LLM sim latency")
	for _, cq := range queryClassSuite()[:8] {
		truth, err := baseline(db, cq.query)
		if err != nil {
			return Report{}, err
		}
		got, err := e.Query(cq.query)
		if err != nil {
			return Report{}, err
		}
		var quality string
		if cq.scalar {
			quality = "err " + f3(metrics.ScalarError(scalarAnswer(got.Result), scalarAnswer(truth)))
		} else {
			m := metrics.Compare(got.Result.Rows, truth.Rows, metrics.Options{NumTolerance: cq.tol})
			quality = "F1 " + f3(m.F1())
		}
		q := cq.query
		if len(q) > 48 {
			q = q[:45] + "..."
		}
		t.AddRow(cq.class, q, quality, d(got.Usage.TotalTokens()),
			got.Usage.SimLatency.Round(1e6).String())
	}
	return Report{
		ID:    "Table 6",
		Title: "LLM storage vs classical row store on identical SQL (medium model)",
		Body:  t.String(),
	}, nil
}

// Table7Ablations toggles the engine's design choices one at a time.
func Table7Ablations(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()
	db, err := world.LoadDB(w)
	if err != nil {
		return Report{}, err
	}

	type variant struct {
		name string
		mut  func(*core.Config)
	}
	variants := []variant{
		{"default", func(*core.Config) {}},
		{"no dedup", func(c *core.Config) { c.Dedup = false }},
		{"strict parser", func(c *core.Config) { c.Tolerant = false }},
		{"no pushdown", func(c *core.Config) { c.Pushdown = false }},
		{"1 round (no resampling)", func(c *core.Config) { c.MaxRounds = 1 }},
	}
	query := "SELECT name, capital, population FROM country WHERE population > 20"

	t := NewTable("variant", "rows", "precision", "recall", "F1", "tokens")
	for _, v := range variants {
		cfg := core.DefaultConfig()
		v.mut(&cfg)
		e := o.newEngine(w, llm.ProfileMedium, cfg, o.Seed+6)
		m, usage, err := scoreAgainstBaseline(e, db, query, metrics.Options{NumTolerance: attrTolerance})
		if err != nil {
			return Report{}, err
		}
		t.AddRow(v.name, d(m.ResultRows), f3(m.Precision()), f3(m.Recall()), f3(m.F1()), d(usage.TotalTokens()))
	}

	// Prompt-cache ablation: the identical query re-run with a cache in
	// front of the model answers entirely from memoised completions.
	w2 := o.buildWorld()
	cache := llm.NewCache(llm.NewSynthLM(w2, llm.ProfileMedium, o.Seed+6))
	cacheCfg := core.DefaultConfig()
	o.applyFaults(&cacheCfg)
	e2 := core.New(cache, cacheCfg)
	for _, name := range w2.DomainNames() {
		e2.RegisterWorldDomain(w2.Domain(name))
	}
	if _, err := e2.Query(query); err != nil {
		return Report{}, err
	}
	if _, err := e2.Query(query); err != nil {
		return Report{}, err
	}
	cs := cache.CacheStats()
	extra := fmt.Sprintf("\nPrompt cache on an identical re-run: %d of %d model calls served from cache (%.0f%%).\n",
		cs.Hits, cs.Hits+cs.Misses, 100*float64(cs.Hits)/float64(cs.Hits+cs.Misses))

	return Report{
		ID:    "Table 7",
		Title: "Ablation of engine design choices (medium model, filtered country scan)",
		Body:  t.String() + extra,
	}, nil
}

// Table8Confidence sweeps the row-confidence threshold (extension feature):
// entities appearing in few sampling rounds are dropped, trading recall for
// precision — frequency voting at the row level.
func Table8Confidence(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()
	db, err := world.LoadDB(w)
	if err != nil {
		return Report{}, err
	}

	query := "SELECT name, capital FROM country"
	truth, err := baseline(db, query)
	if err != nil {
		return Report{}, err
	}
	t := NewTable("min confidence", "rows", "precision", "recall", "F1", "halluc", "dropped")
	for _, minConf := range []float64{0, 0.2, 0.4, 0.6} {
		cfg := core.DefaultConfig()
		cfg.Temperature = 0.8
		cfg.MaxRounds = 8
		cfg.StableRounds = 8 // fixed-round protocol for a fair frequency signal
		cfg.MinConfidence = minConf
		e := o.newEngine(w, llm.ProfileSmall, cfg, o.Seed+12)
		got, err := e.Query(query)
		if err != nil {
			return Report{}, err
		}
		m := metrics.Compare(got.Result.Rows, truth.Rows, metrics.Options{NumTolerance: attrTolerance})
		dropped := 0
		for _, s := range got.Scans {
			dropped += s.LowConfidenceDropped
		}
		t.AddRow(f2(minConf), d(m.ResultRows), f3(m.Precision()), f3(m.Recall()), f3(m.F1()),
			pct(m.HallucinationRate()), d(dropped))
	}
	return Report{
		ID:    "Table 8",
		Title: "Row-confidence filtering (extension): precision/recall trade-off (small model)",
		Body:  t.String(),
	}, nil
}
