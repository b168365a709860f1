package core

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"llmsql/internal/llm"
	"llmsql/internal/rel"
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

// TestParseMemoServesRepeatedScansIdentically: with the memo serving warm
// scans, every query — cold, first warm, second warm — reports the rows,
// ScanStats (parser counters, cache counters, rounds, duplicates) and Usage
// of a store that parses every completion afresh, and repeated warm scans
// hand back the memoised rows themselves.
func TestParseMemoServesRepeatedScansIdentically(t *testing.T) {
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

// TestParseMemoKeyIsTheText: once the session cache has evicted a KEYS
// completion and the disk cache entry is invalidated, the same prompt is
// answered afresh with a different text, and the scan must see the new
// entities — the memo still holds the old text's parse, under the old text.
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
	if n := e.store.memo.entries.Len(); n != 2 {
		t.Fatalf("memo holds %d parses, want the old and the new text's", n)
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
	s.TakeStats()
	rows := scanAll(t, s)
	if rows[0][2].Type() != rel.TypeText {
		t.Fatalf("re-registered table served the old schema's parse: population is %v", rows[0][2].Type())
	}
	if st := s.TakeStats(); st[0].CacheHits != 1 {
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
	if got := renderRows(scanAll(t, s)); got != "France|Paris|68\nJapan|Tokyo|125\nFrance|Paris|68\nJapan|Tokyo|125\n" {
		t.Fatalf("rows:\n%s", got)
	}
	if st := s.TakeStats()[0]; st.Rounds != 2 || st.Duplicates != 0 || st.Parse.RowsParsed != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestParseMemoOnlyWithSessionCache: the memo exists exactly when the
// engine has an in-memory completion cache, and has that cache's capacity.
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
		case tc.want != 0 && (memo == nil || memo.entries.Cap() != tc.want):
			t.Fatalf("CacheCapacity %d: memo %+v, want capacity %d", tc.capacity, memo, tc.want)
		}
	}
}
