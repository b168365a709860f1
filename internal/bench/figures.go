package bench

import (
	"fmt"
	"strings"

	"llmsql/internal/core"
	"llmsql/internal/llm"
	"llmsql/internal/metrics"
	"llmsql/internal/world"
)

// Figure4Convergence measures enumeration recall as a function of the
// number of sampling rounds (temperature 0.8, medium model): the concave
// saturation curve that justifies the stopping rule.
func Figure4Convergence(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()

	maxRounds := o.scaled(12, 4)
	t := NewTable("rounds", "recall(country)", "recall(movie)", "tokens(country)")
	for r := 1; r <= maxRounds; r++ {
		cfg := core.DefaultConfig()
		cfg.Temperature = 0.8
		cfg.MaxRounds = r
		cfg.StableRounds = r + 1 // disable the early stop: measure raw rounds
		e := o.newEngine(w, llm.ProfileMedium, cfg, o.Seed+7)

		recall := func(domain string) (float64, int, error) {
			res, err := e.Query("SELECT " + w.Domain(domain).Schema.Col(0).Name + " FROM " + domain)
			if err != nil {
				return 0, 0, err
			}
			truth := w.Domain(domain).Rows()
			// Key-only retrieval: compare no attribute cells.
			m := metrics.Compare(res.Result.Rows, truth, metrics.Options{CompareCols: []int{}})
			return m.Recall(), res.Usage.TotalTokens(), nil
		}
		rc, tokC, err := recall("country")
		if err != nil {
			return Report{}, err
		}
		rm, _, err := recall("movie")
		if err != nil {
			return Report{}, err
		}
		t.AddRow(d(r), f3(rc), f3(rm), d(tokC))
	}
	return Report{
		ID:    "Figure 4",
		Title: "Enumeration recall vs sampling rounds (temperature 0.8, medium model)",
		Body:  t.String(),
		CSV:   t.CSV(),
	}, nil
}

// Figure5ModelQuality sweeps knowledge coverage (the model-quality axis) at
// two temperatures, measuring F1 of a full country retrieval.
func Figure5ModelQuality(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()
	db, err := world.LoadDB(w)
	if err != nil {
		return Report{}, err
	}

	coverages := []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if o.Scale < 0.5 {
		coverages = []float64{0.3, 0.6, 0.9}
	}
	t := NewTable("coverage", "F1 (temp 0)", "F1 (temp 0.7)")
	for _, cov := range coverages {
		f1At := func(temp float64) (float64, error) {
			cfg := core.DefaultConfig()
			cfg.Temperature = temp
			e := o.newEngine(w, llm.ProfileMedium.WithCoverage(cov), cfg, o.Seed+8)
			m, _, err := scoreAgainstBaseline(e, db, "SELECT name, capital, population FROM country", metrics.Options{NumTolerance: attrTolerance})
			if err != nil {
				return 0, err
			}
			return m.F1(), nil
		}
		f0, err := f1At(0)
		if err != nil {
			return Report{}, err
		}
		f7, err := f1At(0.7)
		if err != nil {
			return Report{}, err
		}
		t.AddRow(f2(cov), f3(f0), f3(f7))
	}
	return Report{
		ID:    "Figure 5",
		Title: "Answer quality vs model knowledge coverage (country retrieval)",
		Body:  t.String(),
		CSV:   t.CSV(),
	}, nil
}

// Figure6Popularity breaks retrieval recall down by entity-popularity
// decile (0 = most famous) — the head-vs-tail gap. Per-decile samples are
// small, so recall is averaged over several independently seeded models.
func Figure6Popularity(o Options) (Report, error) {
	o = o.normalize()
	w := o.buildWorld()
	const modelSeeds = 5

	decileRecall := func(domain string) ([10]float64, error) {
		d := w.Domain(domain)
		var total [10]int
		for i := range d.Entities {
			total[i*10/len(d.Entities)]++
		}
		var sum [10]float64
		for s := 0; s < modelSeeds; s++ {
			e := o.newEngine(w, llm.ProfileMedium, core.DefaultConfig(), o.Seed+9+int64(s)*31)
			res, err := e.Query("SELECT " + d.Schema.Col(0).Name + " FROM " + domain)
			if err != nil {
				return [10]float64{}, err
			}
			var hit [10]int
			seen := map[string]bool{}
			for _, row := range res.Result.Rows {
				key := row[0].AsText()
				dec := d.ProminenceDecile(key)
				if dec < 0 || seen[key] {
					continue
				}
				seen[key] = true
				hit[dec]++
			}
			for i := range sum {
				if total[i] > 0 {
					sum[i] += float64(hit[i]) / float64(total[i])
				}
			}
		}
		for i := range sum {
			sum[i] /= modelSeeds
		}
		return sum, nil
	}
	country, err := decileRecall("country")
	if err != nil {
		return Report{}, err
	}
	movie, err := decileRecall("movie")
	if err != nil {
		return Report{}, err
	}

	t := NewTable("popularity decile", "recall(country)", "recall(movie)")
	for i := 0; i < 10; i++ {
		t.AddRow(d(i), f3(country[i]), f3(movie[i]))
	}
	return Report{
		ID:    "Figure 6",
		Title: "Retrieval recall by entity popularity decile (0 = head, 9 = tail; mean of 5 model seeds)",
		Body:  t.String(),
		CSV:   t.CSV(),
	}, nil
}

// Figure7Crossover studies cost scaling: (a) token/latency cost and recall
// of an LLM scan vs base-table size, and (b) the effect of predicate
// selectivity with and without prompt pushdown.
func Figure7Crossover(o Options) (Report, error) {
	o = o.normalize()

	sizes := []int{10, 25, 50, 100, 200, 400}
	if o.Scale < 0.5 {
		sizes = []int{10, 25, 50}
	}
	sizeTable := NewTable("table size", "LLM tokens", "LLM sim latency", "LLM recall")
	for _, n := range sizes {
		w := world.Generate(world.Config{Seed: o.Seed, Countries: n, Movies: 10, Laureates: 10, Companies: 10})
		db, err := world.LoadDB(w)
		if err != nil {
			return Report{}, err
		}
		e := o.newEngine(w, llm.ProfileMedium, core.DefaultConfig(), o.Seed+10)
		query := "SELECT name, population FROM country"
		truth, err := baseline(db, query)
		if err != nil {
			return Report{}, err
		}
		got, err := e.Query(query)
		if err != nil {
			return Report{}, err
		}
		m := metrics.Compare(got.Result.Rows, truth.Rows, metrics.Options{NumTolerance: attrTolerance})
		sizeTable.AddRow(d(n), d(got.Usage.TotalTokens()),
			got.Usage.SimLatency.Round(1e6).String(), f3(m.Recall()))
	}

	// Selectivity sweep: thresholds at population quantiles.
	w := o.buildWorld()
	db, err := world.LoadDB(w)
	if err != nil {
		return Report{}, err
	}
	thresholds := populationQuantiles(w, []float64{0.0, 0.5, 0.8, 0.95})
	selTable := NewTable("selectivity", "threshold", "tokens (pushdown)", "tokens (no pushdown)", "F1 (pushdown)")
	labels := []string{"1.00", "0.50", "0.20", "0.05"}
	for i, thr := range thresholds {
		query := fmt.Sprintf("SELECT name, population FROM country WHERE population > %d", thr)
		cfgPush := core.DefaultConfig()
		ePush := o.newEngine(w, llm.ProfileMedium, cfgPush, o.Seed+11)
		mPush, usagePush, err := scoreAgainstBaseline(ePush, db, query, metrics.Options{NumTolerance: attrTolerance})
		if err != nil {
			return Report{}, err
		}
		cfgNo := core.DefaultConfig()
		cfgNo.Pushdown = false
		eNo := o.newEngine(w, llm.ProfileMedium, cfgNo, o.Seed+11)
		_, usageNo, err := scoreAgainstBaseline(eNo, db, query, metrics.Options{NumTolerance: attrTolerance})
		if err != nil {
			return Report{}, err
		}
		selTable.AddRow(labels[i], d(int(thr)), d(usagePush.TotalTokens()), d(usageNo.TotalTokens()), f3(mPush.F1()))
	}

	body := "(a) Cost vs base-table size, SELECT name, population FROM country:\n" +
		sizeTable.String() +
		"\n(b) Predicate selectivity with vs without prompt pushdown:\n" +
		selTable.String()
	return Report{
		ID:    "Figure 7",
		Title: "Cost scaling and the pushdown effect (medium model)",
		Body:  body,
		CSV:   sizeTable.CSV(),
	}, nil
}

// populationQuantiles returns population thresholds at the given quantiles
// of the country domain.
func populationQuantiles(w *world.World, qs []float64) []int64 {
	d := w.Domain("country")
	idx := d.Schema.IndexOf("population")
	var pops []int64
	for _, e := range d.Entities {
		if !e.Row[idx].IsNull() {
			pops = append(pops, e.Row[idx].AsInt())
		}
	}
	// insertion sort (n is small)
	for i := 1; i < len(pops); i++ {
		for j := i; j > 0 && pops[j-1] > pops[j]; j-- {
			pops[j-1], pops[j] = pops[j], pops[j-1]
		}
	}
	out := make([]int64, len(qs))
	for i, q := range qs {
		pos := int(q * float64(len(pops)))
		if pos >= len(pops) {
			pos = len(pops) - 1
		}
		out[i] = pops[pos] - 1
	}
	return out
}

// experiments pairs every runner with its report ID, in paper order, so
// subsets can be selected without running the rest (a replay fixture only
// has to cover the experiments that actually run).
var experiments = []struct {
	ID  string
	Run func(Options) (Report, error)
}{
	{"Table 2", Table2RetrievalQuality},
	{"Table 3", Table3QueryClasses},
	{"Table 4", Table4Strategies},
	{"Table 5", Table5Voting},
	{"Table 6", Table6VsBaseline},
	{"Table 7", Table7Ablations},
	{"Table 8", Table8Confidence},
	{"Table 9", Table9Parallelism},
	{"Table 10", Table10Batching},
	{"Table 11", Table11LimitPushdown},
	{"Table 12", Table12BindJoins},
	{"Table 13", Table13WarmCache},
	{"Table 14", Table14Coalesce},
	{"Table 15", Table15FaultSweep},
	{"Table 16", Table16MaterializedViews},
	{"Figure 4", Figure4Convergence},
	{"Figure 5", Figure5ModelQuality},
	{"Figure 6", Figure6Popularity},
	{"Figure 7", Figure7Crossover},
	{"Figure 8", Figure8CacheWarmup},
}

// RunOnly executes the experiments whose ID contains any of the
// comma-separated, case-insensitive substrings in filter (empty = all), in
// paper order. A filter matching nothing is an error.
func RunOnly(o Options, filter string) ([]Report, error) {
	var subs []string
	for _, s := range strings.Split(filter, ",") {
		if s = strings.TrimSpace(strings.ToLower(s)); s != "" {
			subs = append(subs, s)
		}
	}
	matches := func(id string) bool {
		if len(subs) == 0 {
			return true
		}
		for _, s := range subs {
			if strings.Contains(strings.ToLower(id), s) {
				return true
			}
		}
		return false
	}
	var out []Report
	for _, ex := range experiments {
		if !matches(ex.ID) {
			continue
		}
		r, err := ex.Run(o)
		if err != nil {
			return out, fmt.Errorf("%s: %w", ex.ID, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no experiment matches %q", filter)
	}
	return out, nil
}
