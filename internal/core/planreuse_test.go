package core

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"llmsql/internal/llm"
)

// shrinkingCountries is the scripted model's world: every LIST prompt is
// answered with all the countries, in the columns the prompt names, but the
// first `small` of them report a population of 1. Setting small is the world
// changing under the views, which SynthLM, whose answer to a repeated prompt
// never changes, cannot do: a view that filters on population changes its
// row count. The table's own row count never changes, because plans keep
// the cardinality estimate they were priced with until invalidated
// (DESIGN.md "Why plans are safe to reuse across bindings"), so a scan that
// taught the store another count would make a cached plan differ from a
// fresh one by design.
type shrinkingCountries struct{ small atomic.Int32 }

var scriptedCountries = [][3]string{
	{"France", "Paris", "68"}, {"Japan", "Tokyo", "125"}, {"Brazil", "Brasilia", "214"},
	{"Kenya", "Nairobi", "54"}, {"Chile", "Santiago", "19"}, {"Egypt", "Cairo", "105"},
	{"Spain", "Madrid", "48"}, {"India", "New Delhi", "1408"}, {"Peru", "Lima", "34"},
	{"Norway", "Oslo", "5"}, {"Mexico", "Mexico City", "128"}, {"Ghana", "Accra", "33"},
}

func (m *shrinkingCountries) Name() string { return "shrinking" }

func (m *shrinkingCountries) Complete(req llm.CompletionRequest) (llm.CompletionResponse, error) {
	var cols []int
	for _, line := range strings.Split(req.Prompt, "\n") {
		if rest, ok := strings.CutPrefix(line, "COLUMNS: "); ok {
			for _, seg := range strings.Split(rest, " | ") {
				name, _, _ := strings.Cut(seg, " -- ")
				cols = append(cols, storeTable().Schema.IndexOf(name))
			}
		}
	}
	var b strings.Builder
	small := int(m.small.Load())
	for r, c := range scriptedCountries {
		if r < small {
			c[2] = "1"
		}
		for i, col := range cols {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(c[col])
		}
		b.WriteByte('\n')
	}
	text := b.String()
	return llm.CompletionResponse{
		Text:             text,
		PromptTokens:     llm.CountTokens(req.Prompt),
		CompletionTokens: llm.CountTokens(text),
	}, nil
}

// planReuseQueries read the views every way planning treats them: plain,
// joined with a local table (the build side follows the row counts),
// joined with each other, sorted under a LIMIT, and as a semi join.
var planReuseQueries = []string{
	"SELECT name, capital FROM v",
	"SELECT v.name, n.note FROM v JOIN notes n ON v.name = n.name",
	"SELECT w.name, v.capital FROM w JOIN v ON w.name = v.name",
	"SELECT name FROM w ORDER BY population DESC LIMIT 2",
	"SELECT n.note FROM notes n WHERE n.name IN (SELECT name FROM v)",
	"SELECT u.capital, n.note FROM notes n JOIN u ON n.name = u.name",
}

// planReuseViews are the views the steps create, refresh and drop; the
// model's changes move v's and w's row counts.
var planReuseViews = map[string]string{
	"u": "SELECT name, capital FROM country",
	"v": "SELECT name, capital, population FROM country WHERE population > 10",
	"w": "SELECT name, population FROM v WHERE population > 50",
}

var viewAge = regexp.MustCompile(` age=\d+`)

// planReusePair runs every step on an engine with a plan cache and on one
// that plans every statement afresh, over one scripted model.
type planReusePair struct {
	model         *shrinkingCountries
	cached, fresh *Engine
	notes         int
}

func newPlanReusePair(t *testing.T) *planReusePair {
	t.Helper()
	p := &planReusePair{model: &shrinkingCountries{}}
	cfg := DefaultConfig()
	cfg.Temperature = 0
	cfg.ViewTTLReads = 4
	p.cached = New(p.model, cfg)
	cfg.PlanCacheCapacity = -1
	p.fresh = New(p.model, cfg)
	for _, e := range []*Engine{p.cached, p.fresh} {
		e.RegisterTable(storeTable())
		if err := e.Exec("CREATE TABLE notes (name TEXT PRIMARY KEY, note TEXT)"); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// exec runs a statement on both engines; they must agree on its error.
func (p *planReusePair) exec(t *testing.T, stmt string) {
	t.Helper()
	errA, errB := p.cached.Exec(stmt), p.fresh.Exec(stmt)
	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		t.Fatalf("%s: cached engine: %v, fresh engine: %v", stmt, errA, errB)
	}
}

// insertNote adds the next note, walking the countries backwards so the
// notes' order is not the views' order.
func (p *planReusePair) insertNote(t *testing.T) {
	if p.notes == len(scriptedCountries) {
		return
	}
	c := scriptedCountries[len(scriptedCountries)-1-p.notes]
	p.notes++
	p.exec(t, fmt.Sprintf("INSERT INTO notes VALUES ('%s', 'note %d')", c[0], p.notes))
}

// query runs q and EXPLAIN q on both engines and wants the same rows in
// the same order, the same scans served from the same views, the same
// calls and the same plan but for the views' ages. It returns the fresh
// plan.
func (p *planReusePair) query(t *testing.T, q string) string {
	t.Helper()
	describe := func(e *Engine) string {
		res, err := e.Query(q)
		if err != nil {
			return "error: " + err.Error()
		}
		var views []string
		for _, sc := range res.Scans {
			views = append(views, sc.Table+"<-"+sc.Materialized)
		}
		plan, err := e.Explain(q)
		if err != nil {
			return "explain error: " + err.Error()
		}
		return fmt.Sprintf("%s\nscans %v, %d calls\n%s", FormatResult(res.Result), views, res.Usage.Calls, viewAge.ReplaceAllString(plan, ""))
	}
	got, want := describe(p.cached), describe(p.fresh)
	if got != want {
		t.Fatalf("%s\nthrough the plan cache:\n%s\nplanned afresh:\n%s", q, got, want)
	}
	return want
}

// TestCachedPlansMatchFreshPlansAcrossViewLifecycles is the plan-reuse
// property for materialized views: over seeded interleavings of CREATE,
// REFRESH and DROP MATERIALIZED VIEW, TTL expiry, INSERT into a local table,
// the model's answers changing, and queries, every query run through the
// plan cache answers as a freshly planned run does. It opens with a
// REFRESH that turns a join's build side around, so a REFRESH that changes a
// view's row count without invalidating plans fails it.
func TestCachedPlansMatchFreshPlansAcrossViewLifecycles(t *testing.T) {
	const seeds, steps = 12, 150
	join := planReuseQueries[1]
	for seed := int64(1); seed <= seeds; seed++ {
		p := newPlanReusePair(t)
		p.model.small.Store(8) // v: Peru, Mexico and Ghana
		p.exec(t, "CREATE MATERIALIZED VIEW v AS "+planReuseViews["v"])
		for range 6 {
			p.insertNote(t)
		}
		before := p.query(t, join)
		p.model.small.Store(1) // v: every country but France and Norway
		p.exec(t, "REFRESH MATERIALIZED VIEW v")
		if after := p.query(t, join); !strings.Contains(before, "[build: left]") || !strings.Contains(after, "[build: right]") {
			t.Fatalf("the REFRESH from 3 to 10 rows left the join's build side in place:\n%s\n%s", before, after)
		}

		rng := rand.New(rand.NewSource(seed))
		for range steps {
			name := []string{"u", "v", "w"}[rng.Intn(3)]
			switch r := rng.Intn(20); {
			case r < 10:
				p.query(t, planReuseQueries[rng.Intn(len(planReuseQueries))])
			case r < 13:
				p.exec(t, "REFRESH MATERIALIZED VIEW "+name)
			case r < 14:
				p.exec(t, "CREATE MATERIALIZED VIEW "+name+" AS "+planReuseViews[name])
			case r < 15:
				p.exec(t, "DROP MATERIALIZED VIEW "+name)
			case r < 17:
				p.model.small.Store(int32(rng.Intn(len(scriptedCountries) + 1)))
			default:
				p.insertNote(t)
			}
		}
		if st := p.cached.PlanCacheStats(); st.Hits == 0 {
			t.Fatalf("seed %d: the plan cache never hit: %+v", seed, st)
		}
	}
}
