package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
	"llmsql/internal/world"
)

// memoCompletions answers each round of a LIST prompt with rows that need
// repairs, carry prose and repeat entities, so every parser counter and the
// duplicate counter move.
func memoCompletions(req llm.CompletionRequest) string {
	switch req.Seed % 3 {
	case 0:
		return "Here are the rows:\n- France | Paris | 68\nJapan | Tokyo | 125\nFRANCE | Paris | 68"
	case 1:
		return "Japan | Tokyo | about 125 million\nItaly | Rome | 59."
	default:
		return "Italy | Rome | 59\n(end of list)"
	}
}

// twistModel sits on a store's model and, once armed, alters round `round`
// of every LIST and KEYS enumeration: it appends a line to the completion,
// or with fail set fails the call with a degradable error.
type twistModel struct {
	llm.Model
	armed, fail bool
	round       int64
}

func (m *twistModel) Complete(req llm.CompletionRequest) (llm.CompletionResponse, error) {
	if !m.armed || req.Seed != m.round || !strings.Contains(req.Prompt, "TASK: LIST") && !strings.Contains(req.Prompt, "TASK: KEYS") {
		return m.Model.Complete(req)
	}
	if m.fail {
		return llm.CompletionResponse{}, fmt.Errorf("twisted round: %w", llm.Retryable)
	}
	resp, err := m.Model.Complete(req)
	resp.Text += "\nAtlantis"
	return resp, err
}

// TestParseMemoServesRepeatedScansIdentically: a store whose memo replays
// warm enumerations reports the rows, ScanStats and Usage of one that
// parses and merges every round afresh, and the warm steps are replays.
// The scripted part is one full-table scan whose completions move every
// parser counter; the world part runs memoSteps' steps for full-table and
// key-then-attr scans, a bind join, and every setting a merge depends on.
func TestParseMemoServesRepeatedScansIdentically(t *testing.T) {
	t.Run("scripted", memoScripted)
	t.Run("world", memoWorld)
}

// memoScripted: with the memo serving warm scans, every query — cold, first
// warm, second warm — reports the rows, ScanStats (parser counters, cache
// counters, rounds, duplicates) and Usage of a store that parses every
// completion afresh, and repeated warm scans hand back the memoised rows
// themselves.
func memoScripted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheCapacity = -1
	newEngine := func(memo bool) *Engine {
		e := New(&scriptModel{respond: memoCompletions}, cfg)
		e.RegisterTable(storeTable())
		if !memo {
			e.store.memo = nil
		}
		return e
	}
	withMemo, without := newEngine(true), newEngine(false)
	const query = "SELECT name, capital, population FROM country"
	var first *QueryResult
	for i, phase := range []string{"cold", "warm", "warm again"} {
		got, err := withMemo.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		want, err := without.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if renderRows(got.Result.Rows) != renderRows(want.Result.Rows) {
			t.Fatalf("%s: memo changed rows:\n%s\nwant\n%s", phase, renderRows(got.Result.Rows), renderRows(want.Result.Rows))
		}
		if !reflect.DeepEqual(got.Scans, want.Scans) {
			t.Fatalf("%s: memo changed scan stats:\n%+v\nwant\n%+v", phase, got.Scans, want.Scans)
		}
		if got.Usage != want.Usage {
			t.Fatalf("%s: memo changed usage:\n%+v\nwant\n%+v", phase, got.Usage, want.Usage)
		}
		if i == 0 {
			first = got
			continue
		}
		st, cold := got.Scans[0], first.Scans[0]
		if st.CacheHits != st.Rounds || st.CacheMisses != 0 || cold.CacheMisses != cold.Rounds {
			t.Fatalf("%s: cache counters %+v (cold %+v)", phase, st, cold)
		}
		if st.Parse != cold.Parse || st.Rounds != cold.Rounds || st.Duplicates != cold.Duplicates {
			t.Fatalf("%s: scan stats %+v differ from the cold scan's %+v", phase, st, cold)
		}
	}
	if p := first.Scans[0].Parse; p.Repairs == 0 || p.RowsDropped == 0 || first.Scans[0].Duplicates == 0 {
		t.Fatalf("completions must exercise repairs, drops and duplicates: %+v", first.Scans[0])
	}

	a, b := scanAll(t, withMemo.store), scanAll(t, withMemo.store)
	if len(a) == 0 || &a[0][0] != &b[0][0] {
		t.Fatal("a warm scan must be served the memoised rows")
	}
	if c, d := scanAll(t, without.store), scanAll(t, without.store); &c[0][0] == &d[0][0] {
		t.Fatal("without a memo every scan parses afresh")
	}
}

// memoWorld runs memoSteps with and without the memo for every shape and
// setting, and compares rows, ScanStats and Usage step by step.
func memoWorld(t *testing.T) {
	w := parWorld()
	type shape struct {
		name, query string
		strategy    Strategy
	}
	shapes := []shape{
		{"full-table", "SELECT name, capital, population FROM country", StrategyFullTable},
		{"key-filter", "SELECT name, capital FROM country WHERE name <> 'Japan' AND name NOT LIKE 'S%'", StrategyKeyThenAttr},
		{"bind-join", bindJoinQueries()[0], StrategyKeyThenAttr},
	}
	var seen ScanStats // non-vacuity: counters some case must move
	for _, sh := range shapes {
		for _, par := range []int{1, 4} {
			for _, temp := range []float64{0, 0.7} {
				for _, dedup := range []bool{true, false} {
					for _, minConf := range []float64{0, 0.5} {
						name := fmt.Sprintf("%s/P%d/T%v/dedup=%v/conf=%v", sh.name, par, temp, dedup, minConf)
						cfg := DefaultConfig()
						cfg.CacheCapacity = -1
						cfg.PartialResults = true
						cfg.Strategy = sh.strategy
						cfg.Parallelism = par
						cfg.Temperature = temp
						cfg.Dedup = dedup
						cfg.MinConfidence = minConf
						// Without dedup a key-then-attr scan attributes a
						// repeated key twice, and at Parallelism > 1 which of
						// the two identical calls the session cache answers
						// depends on scheduling — with or without the memo. So
						// there only the cache counters and the billing they
						// drive are left out of the comparison.
						timed := sh.strategy == StrategyKeyThenAttr && !dedup && par > 1
						got := memoSteps(t, name, w, cfg, sh.query, true)
						want := memoSteps(t, name, w, cfg, sh.query, false)
						for i := range want {
							g, ref := got[i], want[i]
							if (g.err != nil) != (ref.err != nil) {
								t.Fatalf("%s, %s: memo error %v, reference error %v", name, ref.step, g.err, ref.err)
							}
							if ref.err != nil {
								continue
							}
							if timed {
								for _, r := range []*QueryResult{g.res, ref.res} {
									for j := range r.Scans {
										r.Scans[j].CacheHits, r.Scans[j].CacheMisses = 0, 0
									}
									r.Usage = llm.Usage{Calls: r.Usage.Calls}
								}
							}
							if renderRows(g.res.Result.Rows) != renderRows(ref.res.Result.Rows) {
								t.Fatalf("%s, %s: memo changed rows:\n%s\nwant\n%s", name, ref.step, renderRows(g.res.Result.Rows), renderRows(ref.res.Result.Rows))
							}
							if !reflect.DeepEqual(g.res.Scans, ref.res.Scans) {
								t.Fatalf("%s, %s: memo changed scan stats:\n%+v\nwant\n%+v", name, ref.step, g.res.Scans, ref.res.Scans)
							}
							if g.res.Usage != ref.res.Usage {
								t.Fatalf("%s, %s: memo changed usage:\n%+v\nwant\n%+v", name, ref.step, g.res.Usage, ref.res.Usage)
							}
							for _, st := range ref.res.Scans {
								seen.Duplicates += st.Duplicates
								seen.LowConfidenceDropped += st.LowConfidenceDropped
								seen.KeysGated += st.KeysGated
								seen.KeysBound += st.KeysBound
								seen.Parse.Repairs += st.Parse.Repairs
								seen.Parse.RowsDropped += st.Parse.RowsDropped
							}
						}
					}
				}
			}
		}
	}
	if seen.Duplicates == 0 || seen.LowConfidenceDropped == 0 || seen.KeysGated == 0 || seen.KeysBound == 0 || seen.Parse.Repairs == 0 || seen.Parse.RowsDropped == 0 {
		t.Fatalf("the cases must move duplicates, confidence drops, key and bind gates, repairs and dropped rows: %+v", seen)
	}
}

// memoStep is one query's outcome in memoSteps.
type memoStep struct {
	step string
	res  *QueryResult
	err  error
}

// memoSteps runs query through memoWorld's steps on a fresh world engine,
// with or without the enumeration memo. With it, it also checks each step
// against the one before: a warm step is served from the cache, replays
// every enumeration (the memo's entries are the same pointers, so none was
// merged and stored anew) and moves the parse and merge counters as the
// step it repeats did; a failed round stores nothing; a changed text
// replaces an entry.
func memoSteps(t *testing.T, name string, w *world.World, cfg Config, query string, memo bool) []memoStep {
	e := worldEngine(w, cfg)
	if !memo {
		e.store.memo = nil
	}
	twist := &twistModel{Model: e.store.model, round: 1}
	if cfg.Temperature == 0 {
		twist.round = 0 // the only round
	}
	e.store.model = twist
	entries := func() map[enumKey]*enumeration {
		held := make(map[enumKey]*enumeration)
		e.store.memo.entries.OldestFirst(func(k enumKey, v *enumeration) bool {
			held[k] = v
			return true
		})
		return held
	}
	var out []memoStep
	var before map[enumKey]*enumeration
	for i, step := range []struct {
		name              string
		armed, fail, warm bool
	}{
		{name: "cold"},
		{name: "warm", warm: true},
		{name: "warm again", warm: true},
		{name: "diverged", armed: true},
		{name: "warm on the changed text", armed: true, warm: true},
		{name: "failed round", armed: true, fail: true},
		{name: "back to the original text"},
	} {
		twist.armed, twist.fail = step.armed, step.fail
		res, err := e.Query(query)
		if err != nil && !step.fail {
			t.Fatalf("%s, %s: %v", name, step.name, err)
		}
		out = append(out, memoStep{step.name, res, err})
		if !memo {
			continue
		}
		after := entries()
		switch {
		case len(after) == 0:
			t.Fatalf("%s, %s: the memo holds no enumeration", name, step.name)
		case i == 0:
		case (step.warm || step.fail) != maps.Equal(before, after):
			t.Fatalf("%s, %s: memo entries %v after %v: a warm step or a failed round must store nothing, a changed text must replace an entry", name, step.name, after, before)
		}
		before = after
		if !step.warm {
			continue
		}
		for j, st := range res.Scans {
			prev := out[i-1].res.Scans[j]
			if st.CacheMisses != 0 || st.Parse != prev.Parse || st.Rounds != prev.Rounds || st.Duplicates != prev.Duplicates || st.LowConfidenceDropped != prev.LowConfidenceDropped {
				t.Fatalf("%s, %s: scan stats %+v, want no cache miss and the parse and merge counters of the step before, %+v", name, step.name, st, prev)
			}
		}
	}
	return out
}

// TestParseMemoSharedByGatedAndUngatedScans: two key-then-attr scans with
// one KEYS prompt share its memo entry, though only one of them gates keys
// (the other's key predicate does not compile against its schema, so it
// gates nothing and leaves the executor to reject the query). The gated
// scan must not write into the shared enumeration.
func TestParseMemoSharedByGatedAndUngatedScans(t *testing.T) {
	model := func() llm.Model {
		return llm.NewCache(&scriptModel{respond: func(req llm.CompletionRequest) string {
			if strings.Contains(req.Prompt, "TASK: KEYS") {
				return "France\nJapan\nItaly\nGermany"
			}
			return "Somewhere"
		}})
	}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Temperature = 0
	withMemo, without := NewLLMStore(model(), cfg), NewLLMStore(model(), cfg)
	without.memo = nil
	withMemo.Register(storeTable())
	without.Register(storeTable())
	filter, err := sql.ParseExpr("name <> 'Japan'")
	if err != nil {
		t.Fatal(err)
	}
	renamed := rel.NewSchema(
		rel.Column{Name: "country_name", Type: rel.TypeText, Key: true},
		rel.Column{Name: "capital", Type: rel.TypeText},
		rel.Column{Name: "population", Type: rel.TypeInt},
	)
	var st []ScanStats // withMemo's scans
	scan := func(s *LLMStore, schema rel.Schema) string {
		it, a := accountedScan(t, s, exec.ScanRequest{Table: "country", Schema: schema, Filter: filter})
		rows, err := exec.Drain(it)
		if err != nil {
			t.Fatal(err)
		}
		if s == withMemo {
			st = append(st, a.Scans...)
		}
		return renderRows(rows)
	}
	for i, schema := range []rel.Schema{renamed, storeTable().Schema, renamed, storeTable().Schema} {
		if got, want := scan(withMemo, schema), scan(without, schema); got != want {
			t.Fatalf("scan %d: memo served\n%s\nwant\n%s", i, got, want)
		}
	}
	if n := withMemo.memo.entries.Len(); n != 1 {
		t.Fatalf("memo holds %d enumerations, want the one KEYS prompt's", n)
	}
	if st[0].KeysGated != 0 || st[1].KeysGated != 1 || st[1].CacheMisses != 0 {
		t.Fatalf("want an ungated scan, then a gated one on the warm KEYS prompt: %+v", st[:2])
	}
}

// TestParseMemoKeyIsTheText: once the session cache has evicted a KEYS
// completion and the disk cache entry is invalidated, the same prompt is
// answered afresh with a different text, and the scan must see the new
// entities — the memo's enumeration of the prompt consumed the old text, so
// the round diverges, is merged afresh and replaces the entry.
func TestParseMemoKeyIsTheText(t *testing.T) {
	var answer atomic.Value
	answer.Store("France\nJapan")
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		if strings.Contains(req.Prompt, "TASK: KEYS") {
			return answer.Load().(string)
		}
		return "Somewhere"
	}}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Temperature = 0
	cfg.CacheCapacity = 2 // the two ATTR completions evict the KEYS one
	cfg.CacheDir = t.TempDir()
	e, err := Open(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RegisterTable(storeTable())
	const query = "SELECT name, capital FROM country"
	if _, err := e.Query(query); err != nil {
		t.Fatal(err)
	}
	keysReq := model.calls[0]
	if !strings.Contains(keysReq.Prompt, "TASK: KEYS") {
		t.Fatalf("first call is not the KEYS prompt: %q", keysReq.Prompt)
	}
	answer.Store("Germany\nJapan")
	if e.InvalidateCachedCompletions(keysReq) != 1 {
		t.Fatal("the KEYS completion must be on disk")
	}
	res, err := e.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRows(res.Result.Rows); got != "Germany|Somewhere\nJapan|Somewhere\n" {
		t.Fatalf("rows after the answer changed:\n%s", got)
	}
	if n := e.store.memo.entries.Len(); n != 1 {
		t.Fatalf("memo holds %d enumerations, want the KEYS prompt's alone", n)
	}
	_, kept, _ := e.store.memo.entries.Oldest()
	if !slices.Equal(kept.texts, []string{"Germany\nJapan"}) {
		t.Fatalf("memo kept the texts %q, want the new answer's", kept.texts)
	}
}

// TestParseMemoReRegisteredTableMisses: re-registering a table with another
// schema keeps its prompts — so the session cache serves the same text —
// but the memo must parse it afresh under the new column types.
func TestParseMemoReRegisteredTableMisses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Temperature = 0
	cfg.CacheCapacity = -1
	s := NewLLMStore(llm.NewCache(&scriptModel{respond: func(llm.CompletionRequest) string {
		return "France | Paris | 68"
	}}), cfg)
	s.Register(storeTable())
	if rows := scanAll(t, s); rows[0][2].Type() != rel.TypeInt {
		t.Fatalf("population parsed as %v", rows[0][2].Type())
	}
	retyped := storeTable()
	retyped.Schema = rel.NewSchema(
		rel.Column{Name: "name", Type: rel.TypeText, Key: true, Desc: "name"},
		rel.Column{Name: "capital", Type: rel.TypeText, Desc: "capital"},
		rel.Column{Name: "population", Type: rel.TypeText, Desc: "population"},
	)
	s.Register(retyped)
	rows, st := scanAllStats(t, s)
	if rows[0][2].Type() != rel.TypeText {
		t.Fatalf("re-registered table served the old schema's parse: population is %v", rows[0][2].Type())
	}
	if st[0].CacheHits != 1 {
		t.Fatalf("the re-registered scan must hit the session cache: %+v", st[0])
	}
}

// TestParseMemoNoDedupKeepsBothCopies: without dedup, two rounds answered
// with the identical text — the second served from the memo — still emit
// every row of both.
func TestParseMemoNoDedupKeepsBothCopies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dedup = false
	cfg.MaxRounds = 2
	cfg.StableRounds = 5
	cfg.CacheCapacity = -1
	s := NewLLMStore(llm.NewCache(&scriptModel{respond: func(llm.CompletionRequest) string {
		return "France | Paris | 68\nJapan | Tokyo | 125"
	}}), cfg)
	s.Register(storeTable())
	rows, stats := scanAllStats(t, s)
	if got := renderRows(rows); got != "France|Paris|68\nJapan|Tokyo|125\nFrance|Paris|68\nJapan|Tokyo|125\n" {
		t.Fatalf("rows:\n%s", got)
	}
	if st := stats[0]; st.Rounds != 2 || st.Duplicates != 0 || st.Parse.RowsParsed != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestParseMemoOnlyWithSessionCache: a solo engine's memo exists exactly
// when it has an in-memory completion cache, and has that cache's capacity.
// (A group's sessions share the group's whatever their cache:
// TestGroupSessionsShareOneEnumerationMemo.)
func TestParseMemoOnlyWithSessionCache(t *testing.T) {
	for _, tc := range []struct{ capacity, want int }{
		{0, 0},
		{16, 16},
		{-1, llm.DefaultCacheCapacity},
	} {
		cfg := DefaultConfig()
		cfg.CacheCapacity = tc.capacity
		memo := New(&scriptModel{respond: memoCompletions}, cfg).store.memo
		switch {
		case tc.want == 0 && memo != nil:
			t.Fatalf("CacheCapacity %d: a store without a session cache has a memo", tc.capacity)
		case tc.want != 0 && (memo == nil || memo.limit != tc.want):
			t.Fatalf("CacheCapacity %d: memo %+v, want capacity %d", tc.capacity, memo, tc.want)
		}
	}
}

// TestEnumMemoConcurrentWarmScansWithEviction: goroutines scan one store
// whose memo holds about one enumeration, with four column sets — four LIST
// prompts — in turn, so replays, misses, replacements and evictions
// interleave. Every scan must return the rows and ScanStats a store without
// a memo does (cache counters aside: which goroutine's call the small
// session cache still holds is a matter of timing), and the memo must stay
// within its bound in rounds.
func TestEnumMemoConcurrentWarmScansWithEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 2
	newStore := func() *LLMStore {
		s := NewLLMStore(llm.NewCacheSized(&scriptModel{respond: memoCompletions}, 6), cfg)
		s.Register(storeTable())
		return s
	}
	schema := storeTable().Schema
	needs := [][]bool{nil, {true, false, false}, {true, true, false}, {true, false, true}}
	scan := func(s *LLMStore, needed []bool) (string, ScanStats, error) {
		it, err := s.Scan(exec.ScanRequest{Table: "country", Schema: schema, Needed: needed})
		if err != nil {
			return "", ScanStats{}, err
		}
		rows, err := exec.Drain(it)
		st := it.(*llmScan).stats
		st.CacheHits, st.CacheMisses = 0, 0
		return renderRows(rows), st, err
	}
	ref := newStore()
	ref.memo = nil
	wantRows, wantStats := make([]string, len(needs)), make([]ScanStats, len(needs))
	for i, needed := range needs {
		var err error
		if wantRows[i], wantStats[i], err = scan(ref, needed); err != nil {
			t.Fatal(err)
		}
	}

	s := newStore()
	const goroutines, scans = 8, 200
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < scans; i++ {
				k := (g + i) % len(needs)
				rows, st, err := scan(s, needs[k])
				switch {
				case err != nil:
				case rows != wantRows[k]:
					err = fmt.Errorf("columns %v: rows\n%s\nwant\n%s", needs[k], rows, wantRows[k])
				case !reflect.DeepEqual(st, wantStats[k]):
					err = fmt.Errorf("columns %v: stats %+v\nwant %+v", needs[k], st, wantStats[k])
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	s.memo.entries.OldestFirst(func(_ enumKey, e *enumeration) bool {
		held += len(e.texts)
		return true
	})
	if held != s.memo.rounds || held > s.memo.limit || held == 0 {
		t.Fatalf("memo holds %d rounds, counts %d, limit %d", held, s.memo.rounds, s.memo.limit)
	}
}
