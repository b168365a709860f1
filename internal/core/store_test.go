package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// scriptModel is a fake Model driven by a function, so tests control every
// completion exactly.
type scriptModel struct {
	mu      sync.Mutex
	calls   []llm.CompletionRequest
	respond func(req llm.CompletionRequest) string
}

func (m *scriptModel) Name() string { return "script" }

func (m *scriptModel) Complete(req llm.CompletionRequest) (llm.CompletionResponse, error) {
	m.mu.Lock()
	m.calls = append(m.calls, req)
	m.mu.Unlock()
	text := m.respond(req)
	return llm.CompletionResponse{
		Text:             text,
		PromptTokens:     llm.CountTokens(req.Prompt),
		CompletionTokens: llm.CountTokens(text),
	}, nil
}

func (m *scriptModel) callCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.calls)
}

func storeTable() VirtualTable {
	return VirtualTable{
		Name:        "country",
		Description: "a country",
		Schema: rel.NewSchema(
			rel.Column{Name: "name", Type: rel.TypeText, Key: true, Desc: "name"},
			rel.Column{Name: "capital", Type: rel.TypeText, Desc: "capital"},
			rel.Column{Name: "population", Type: rel.TypeInt, Desc: "population"},
		),
	}
}

func scanAll(t *testing.T, s *LLMStore) []rel.Row {
	t.Helper()
	it, err := s.Scan(exec.ScanRequest{Table: "country", Schema: storeTable().Schema})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// accountedScan starts req on s through a fresh query account, whose Scans
// hold the scan's statistics once the stream is drained or closed.
func accountedScan(t testing.TB, s *LLMStore, req exec.ScanRequest) (exec.RowIter, *queryAccount) {
	t.Helper()
	a := &queryAccount{}
	it, err := s.scan(req, a)
	if err != nil {
		t.Fatal(err)
	}
	return it, a
}

// scanAllStats is scanAll through a query account: the rows, and the
// statistics the scan published.
func scanAllStats(t *testing.T, s *LLMStore) ([]rel.Row, []ScanStats) {
	t.Helper()
	it, a := accountedScan(t, s, exec.ScanRequest{Table: "country", Schema: storeTable().Schema})
	rows, err := exec.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows, a.Scans
}

func TestStoreRegisterAndSchema(t *testing.T) {
	s := NewLLMStore(&scriptModel{respond: func(llm.CompletionRequest) string { return "" }}, DefaultConfig())
	s.Register(storeTable())
	if !s.Has("COUNTRY") {
		t.Fatal("case-insensitive Has")
	}
	schema, err := s.TableSchema("country")
	if err != nil || schema.Len() != 3 {
		t.Fatalf("schema: %v %v", schema, err)
	}
	if _, err := s.TableSchema("nope"); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := s.Scan(exec.ScanRequest{Table: "nope"}); err == nil {
		t.Fatal("scan of unknown table must error")
	}
}

func TestStoreScanParsesRows(t *testing.T) {
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		return "France | Paris | 68\nJapan | Tokyo | 125"
	}}
	cfg := DefaultConfig()
	cfg.Temperature = 0 // one round
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	rows, stats := scanAllStats(t, s)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[0][0].AsText() != "France" || rows[1][2].AsInt() != 125 {
		t.Fatalf("parsed: %v", rows)
	}
	if len(stats) != 1 || stats[0].RowsEmitted != 2 || stats[0].Prompts != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestStoreConvergenceStopping(t *testing.T) {
	// Round 0 and 1 produce new entities, later rounds repeat: the scan
	// must stop after StableRounds quiet rounds, not run MaxRounds.
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		switch req.Seed {
		case 0:
			return "France | Paris | 68"
		case 1:
			return "France | Paris | 68\nJapan | Tokyo | 125"
		default:
			return "Japan | Tokyo | 125"
		}
	}}
	cfg := DefaultConfig()
	cfg.Temperature = 0.7
	cfg.MaxRounds = 50
	cfg.StableRounds = 2
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	rows, stats := scanAllStats(t, s)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if model.callCount() != 4 { // rounds 0,1 new; rounds 2,3 quiet -> stop
		t.Fatalf("calls: %d", model.callCount())
	}
	if stats[0].Rounds != 4 {
		t.Fatalf("rounds: %+v", stats[0])
	}
}

func TestStoreDedupAcrossRounds(t *testing.T) {
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		return "France | Paris | 68\nFRANCE | Paris | 68\n france  | Paris | 68"
	}}
	cfg := DefaultConfig()
	cfg.Temperature = 0
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	rows, stats := scanAllStats(t, s)
	if len(rows) != 1 {
		t.Fatalf("case/space-insensitive dedup failed: %v", rows)
	}
	if stats[0].Duplicates != 2 {
		t.Fatalf("dup count: %+v", stats[0])
	}
}

func TestStoreNoDedupEmitsAll(t *testing.T) {
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		return "France | Paris | 68\nFrance | Paris | 68"
	}}
	cfg := DefaultConfig()
	cfg.Temperature = 0
	cfg.Dedup = false
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	rows := scanAll(t, s)
	if len(rows) != 2 {
		t.Fatalf("no-dedup rows: %v", rows)
	}
}

func TestStorePushdownInPrompt(t *testing.T) {
	var sawFilter bool
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		if strings.Contains(req.Prompt, "FILTER: population > 50") {
			sawFilter = true
		}
		return "France | Paris | 68"
	}}
	cfg := DefaultConfig()
	cfg.Temperature = 0
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	filter, err := parseFilter("population > 50")
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.Scan(exec.ScanRequest{Table: "country", Schema: storeTable().Schema, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Drain(it); err != nil {
		t.Fatal(err)
	}
	if !sawFilter {
		t.Fatal("filter not pushed into prompt")
	}

	// With pushdown disabled, no FILTER line appears.
	sawFilter = false
	cfg.Pushdown = false
	s2 := NewLLMStore(model, cfg)
	s2.Register(storeTable())
	it, err = s2.Scan(exec.ScanRequest{Table: "country", Schema: storeTable().Schema, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Drain(it); err != nil {
		t.Fatal(err)
	}
	if sawFilter {
		t.Fatal("filter pushed despite Pushdown=false")
	}
}

func TestStoreNeededColumnsInPrompt(t *testing.T) {
	var lastPrompt string
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		lastPrompt = req.Prompt
		return "France | 68"
	}}
	cfg := DefaultConfig()
	cfg.Temperature = 0
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	it, err := s.Scan(exec.ScanRequest{
		Table:  "country",
		Schema: storeTable().Schema,
		Needed: []bool{true, false, true}, // skip capital
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(lastPrompt, "capital") {
		t.Fatalf("pruned column leaked into prompt:\n%s", lastPrompt)
	}
	if len(rows) != 1 || !rows[0][1].IsNull() || rows[0][2].AsInt() != 68 {
		t.Fatalf("masked scan rows: %v", rows)
	}
}

func TestStorePagedStrategyExcludes(t *testing.T) {
	// Page 1 returns two entities; page 2's prompt must exclude them.
	var prompts []string
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		prompts = append(prompts, req.Prompt)
		if strings.Contains(req.Prompt, "EXCLUDE:") {
			return "No further rows."
		}
		return "France | Paris | 68\nJapan | Tokyo | 125"
	}}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyPaged
	cfg.Temperature = 0
	cfg.MaxRounds = 10
	cfg.StableRounds = 1
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	rows := scanAll(t, s)
	if len(rows) != 2 {
		t.Fatalf("paged rows: %v", rows)
	}
	if len(prompts) != 2 {
		t.Fatalf("paged prompts: %d", len(prompts))
	}
	if !strings.Contains(prompts[1], "EXCLUDE: France | Japan") {
		t.Fatalf("second page must exclude:\n%s", prompts[1])
	}
}

func TestStoreKeyThenAttrPromptFlow(t *testing.T) {
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		switch {
		case strings.Contains(req.Prompt, "TASK: KEYS"):
			return "France\nJapan"
		case strings.Contains(req.Prompt, "ENTITY: France") && strings.Contains(req.Prompt, "COLUMN: capital"):
			return "Paris"
		case strings.Contains(req.Prompt, "ENTITY: France"):
			return "68"
		case strings.Contains(req.Prompt, "ENTITY: Japan") && strings.Contains(req.Prompt, "COLUMN: capital"):
			return "The capital of Japan is Tokyo."
		default:
			return "125"
		}
	}}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Temperature = 0
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	rows := scanAll(t, s)
	if len(rows) != 2 {
		t.Fatalf("kta rows: %v", rows)
	}
	byKey := map[string]rel.Row{}
	for _, r := range rows {
		byKey[r[0].AsText()] = r
	}
	if byKey["France"][1].AsText() != "Paris" || byKey["France"][2].AsInt() != 68 {
		t.Fatalf("france: %v", byKey["France"])
	}
	if byKey["Japan"][1].AsText() != "Tokyo" {
		t.Fatalf("japan sentence answer: %v", byKey["Japan"])
	}
	// 1 KEYS + 2 entities x 2 attrs = 5 calls.
	if model.callCount() != 5 {
		t.Fatalf("calls: %d", model.callCount())
	}
}

func TestStoreVotingMajority(t *testing.T) {
	// The capital answer flips across vote seeds: Paris, Paris, Lyon ->
	// majority must pick Paris.
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		if strings.Contains(req.Prompt, "TASK: KEYS") {
			return "France"
		}
		if strings.Contains(req.Prompt, "COLUMN: capital") {
			if req.Seed%3 == 2 {
				return "Lyon"
			}
			return "Paris"
		}
		return "68"
	}}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Votes = 3
	cfg.Temperature = 0.5
	cfg.MaxRounds = 1
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	rows := scanAll(t, s)
	if len(rows) != 1 || rows[0][1].AsText() != "Paris" {
		t.Fatalf("majority vote: %v", rows)
	}
}

func TestStoreVotingAllRefusalsYieldNull(t *testing.T) {
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		if strings.Contains(req.Prompt, "TASK: KEYS") {
			return "France"
		}
		return "I'm not sure."
	}}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Votes = 3
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	rows := scanAll(t, s)
	if len(rows) != 1 || !rows[0][1].IsNull() || !rows[0][2].IsNull() {
		t.Fatalf("refusals must yield NULLs: %v", rows)
	}
}

func TestStoreScanStatsAccumulate(t *testing.T) {
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		return "- France | Paris | sixty-eight"
	}}
	cfg := DefaultConfig()
	cfg.Temperature = 0
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	_, stats := scanAllStats(t, s)
	if stats[0].Parse.Repairs == 0 {
		t.Fatalf("repairs not counted: %+v", stats[0].Parse)
	}
	if stats[0].Parse.LinesSeen != 1 {
		t.Fatalf("lines: %+v", stats[0].Parse)
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{MaxRounds: -1, StableRounds: 0, Votes: 0, Temperature: -2}
	n := c.normalize()
	if n.MaxRounds != 1 || n.StableRounds != 1 || n.Votes != 1 || n.Temperature != 0 {
		t.Fatalf("normalize: %+v", n)
	}
	for _, temp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := (Config{Temperature: temp}).normalize().Temperature; got != 0 {
			t.Errorf("temperature %v normalized to %v, want 0", temp, got)
		}
	}
	if got := (Config{Temperature: 0.7}).normalize().Temperature; got != 0.7 {
		t.Errorf("temperature 0.7 normalized to %v", got)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyFullTable.String() != "full-table" ||
		StrategyKeyThenAttr.String() != "key-then-attr" ||
		StrategyPaged.String() != "paged" {
		t.Fatal("strategy names")
	}
	if Strategy(99).String() != "full-table" {
		t.Fatal("unknown strategy default name")
	}
}

// parseFilter parses a predicate for scan requests.
func parseFilter(src string) (sql.Expr, error) {
	e, err := sql.ParseExpr(src)
	if err != nil {
		return nil, fmt.Errorf("parse filter: %w", err)
	}
	return e, nil
}

func TestStoreConfidenceFilter(t *testing.T) {
	// "France" appears every round; "Phantomia" only in round 0, twice —
	// an appearance counts rounds, not rows. With MinConfidence 0.5 over 4
	// rounds the phantom must be dropped.
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		if req.Seed == 0 {
			return "France | Paris | 68\nPhantomia | Ghost City | 1\nPHANTOMIA | Ghost City | 1"
		}
		return "France | Paris | 68"
	}}
	cfg := DefaultConfig()
	cfg.Temperature = 0.7
	cfg.MaxRounds = 4
	cfg.StableRounds = 4
	cfg.MinConfidence = 0.5
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	rows, stats := scanAllStats(t, s)
	if len(rows) != 1 || rows[0][0].AsText() != "France" {
		t.Fatalf("confidence filter: %v", rows)
	}
	if stats[0].LowConfidenceDropped != 1 {
		t.Fatalf("drop count: %+v", stats[0])
	}
}

func TestStoreConfidenceFilterDisabledCases(t *testing.T) {
	respond := func(req llm.CompletionRequest) string {
		if req.Seed == 0 {
			return "France | Paris | 68\nPhantomia | Ghost City | 1"
		}
		return "France | Paris | 68"
	}
	// Single round: the filter must not apply (no frequency signal).
	cfg := DefaultConfig()
	cfg.Temperature = 0
	cfg.MinConfidence = 0.9
	s := NewLLMStore(&scriptModel{respond: respond}, cfg)
	s.Register(storeTable())
	if rows := scanAll(t, s); len(rows) != 2 {
		t.Fatalf("single-round filter must be inert: %v", rows)
	}
	// MinConfidence 0: disabled.
	cfg = DefaultConfig()
	cfg.Temperature = 0.7
	cfg.MaxRounds = 4
	cfg.StableRounds = 4
	cfg.MinConfidence = 0
	s = NewLLMStore(&scriptModel{respond: respond}, cfg)
	s.Register(storeTable())
	if rows := scanAll(t, s); len(rows) != 2 {
		t.Fatalf("disabled filter dropped rows: %v", rows)
	}
}

func TestStoreConfidenceFilterSkipsPaged(t *testing.T) {
	// Paged scans see each entity exactly once; the filter must not fire.
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		if strings.Contains(req.Prompt, "EXCLUDE:") {
			return "No further rows."
		}
		return "France | Paris | 68\nJapan | Tokyo | 125"
	}}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyPaged
	cfg.Temperature = 0
	cfg.MaxRounds = 6
	cfg.StableRounds = 1
	cfg.MinConfidence = 0.9
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	if rows := scanAll(t, s); len(rows) != 2 {
		t.Fatalf("paged scan must ignore confidence filter: %v", rows)
	}
}

func TestStoreWhitespaceVariantKeysUnify(t *testing.T) {
	// Regression: the model emits the same entity with different interior
	// whitespace across rounds. Parse-time normalization must unify them
	// (one row, one set of ATTR prompts, normalized prompt spelling) —
	// before the fix the variants defeated dedup and desynced the
	// prompt<->row pairing of the attribute phase.
	var attrPrompts []string
	var mu sync.Mutex
	model := &scriptModel{respond: func(req llm.CompletionRequest) string {
		if strings.Contains(req.Prompt, "TASK: KEYS") {
			if req.Seed == 0 {
				return "United  Kingdom"
			}
			return "United Kingdom"
		}
		mu.Lock()
		attrPrompts = append(attrPrompts, req.Prompt)
		mu.Unlock()
		if strings.Contains(req.Prompt, "COLUMN: capital") {
			return "London"
		}
		return "67"
	}}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Temperature = 0.7
	cfg.MaxRounds = 2
	cfg.StableRounds = 2
	s := NewLLMStore(model, cfg)
	s.Register(storeTable())
	rows := scanAll(t, s)
	if len(rows) != 1 {
		t.Fatalf("whitespace variants not unified: %v", rows)
	}
	if got := rows[0][0].AsText(); got != "United Kingdom" {
		t.Fatalf("emitted key not normalized: %q", got)
	}
	if len(attrPrompts) != 2 { // one per non-key column, a single entity
		t.Fatalf("attribute fan-out not unified: %d prompts", len(attrPrompts))
	}
	for _, p := range attrPrompts {
		if !strings.Contains(p, "ENTITY: United Kingdom") {
			t.Fatalf("ATTR prompt carries unnormalized key:\n%s", p)
		}
	}
}

// mergeVotesByKey defines mergeVotes' grouping the obvious way — two maps over
// rel.Row.AllKey strings — and is the oracle for the map-free implementation.
func mergeVotesByKey(votes []attrVote, t rel.DataType) rel.Value {
	counts := map[string]int{}
	values := map[string]rel.Value{}
	var order []string
	for _, vote := range votes {
		if !vote.ok {
			continue
		}
		k := (rel.Row{vote.val}).AllKey()
		if _, seen := counts[k]; !seen {
			values[k] = vote.val
			order = append(order, k)
		}
		counts[k]++
	}
	best := ""
	bestN := 0
	for _, k := range order {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	if bestN == 0 {
		return rel.NullOf(t)
	}
	return values[best]
}

func TestMergeVotesMatchesKeyGrouping(t *testing.T) {
	// A pool with every way two votes can be equal-but-not-identical: case
	// and edge whitespace in text, 2 vs 2.0, ints past 2^53 that collapse as
	// floats, signed zeros, NaN.
	pool := []rel.Value{
		rel.Text("Paris"), rel.Text("paris"), rel.Text(" Paris "), rel.Text("Lyon"), rel.Text("ſ"), rel.Text("s"), rel.Text("2"),
		rel.Int(2), rel.Float(2), rel.Float(2.5), rel.Int(1<<53 + 1), rel.Int(1 << 53),
		rel.Float(0), rel.Float(math.Copysign(0, -1)), rel.Float(math.NaN()), rel.Float(math.NaN()),
		rel.Bool(true), rel.Bool(false), rel.NullOf(rel.TypeInt),
	}
	for _, a := range pool {
		for _, b := range pool {
			want := rel.Row{a}.AllKey() == rel.Row{b}.AllKey()
			if got := sameVote(a, b); got != want {
				t.Errorf("sameVote(%v, %v) = %v, key equality says %v", a, b, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		votes := make([]attrVote, 1+rng.Intn(7))
		for i := range votes {
			votes[i] = attrVote{val: pool[rng.Intn(len(pool))], ok: rng.Intn(5) > 0}
		}
		got, want := mergeVotes(votes, rel.TypeText), mergeVotesByKey(votes, rel.TypeText)
		// Compare representations, not ==: a NaN winner is unequal to itself.
		if got.Type() != want.Type() || got.IsNull() != want.IsNull() || got.String() != want.String() {
			t.Fatalf("votes %+v: mergeVotes = %v, key grouping = %v", votes, got, want)
		}
	}
	if got := mergeVotes(nil, rel.TypeInt); !got.IsNull() || got.Type() != rel.TypeInt {
		t.Fatalf("no votes must give a typed NULL, got %v", got)
	}
}

// TestCallAccountSize: a fan-out keeps one callAccount per task, so its size
// is paid once per model call; the provenance record is 16 bytes so the
// account stays at 32 on 64-bit platforms.
func TestCallAccountSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(llm.Provenance{}); got != 16 {
		t.Errorf("llm.Provenance is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(callAccount{}); got != 32 {
		t.Errorf("callAccount is %d bytes, want 32", got)
	}
}
