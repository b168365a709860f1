package core

import (
	"math"
	"slices"
	"strings"

	"llmsql/internal/expr"
	"llmsql/internal/llm"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// startKeyThenAttr runs the enumeration phase of the key-then-attr
// pipeline eagerly — KEYS prompts, then the local key gate — and returns a
// demand-driven stream over the attribute phase. A scan no LIMIT can stop
// early will be drained, so it attributes every key in one fan-out: the
// fully materializing scan. Under a LIMIT (sc.windowed) attribute prompts
// are issued in batch-aligned prefetch windows instead: a window's fan-out
// launches only when the consumer demands a row beyond what is buffered,
// so a LIMIT that stops pulling stops the spend after at most one window
// of over-fetch. Rows stream in key order, so at any
// Parallelism/BatchSize the emitted prefix is byte-identical to the fully
// materialized scan.
func (sc *llmScan) startKeyThenAttr() (*attrStream, error) {
	// Phase 1: enumerate keys. The prompt carries the conjuncts the key
	// column alone can decide; the gate below enforces them locally. The
	// rows are the entity key alone.
	keyFilter := sc.keyFilter()
	keyRows, ents, err := sc.enumerate(buildKeysPrompt(sc.table, keyFilter, nil, 0), []int{sc.keyPos}, 1)
	if err != nil {
		return nil, err
	}
	// The enumeration is complete regardless of how much of the stream the
	// consumer ends up pulling, so the cardinality estimate can be noted
	// now (unfiltered scans only, as ever).
	if sc.filter == nil {
		sc.store.noteCardinality(sc.table.Name, len(keyRows))
	}
	// The gate: keys a key-only pushed conjunct rejects would have their
	// rows dropped by the executor's re-check anyway — spending attribute
	// prompts on them buys nothing.
	keyRows, ents = sc.gateKeys(keyRows, ents, keyFilter)
	// The bind gate: a bind join bound this scan to the outer side's
	// distinct join keys, so entities outside that set could never survive
	// the join — their attribute fan-out is skipped. The enumeration above
	// ran with the prompt of an unbound scan (it is the membership oracle
	// that keeps bound results identical to the full scan), and the gate
	// drops whole batch groups so every surviving (batched) ATTR prompt
	// and vote seed is byte-identical to the unbound scan's; emit masks
	// the rider keys that were attributed only to preserve their group's
	// prompt.
	keyRows, emit := sc.bindGate(keyRows, ents)

	prompters := make([]attrPrompter, len(sc.attrCols))
	for i, c := range sc.attrCols {
		prompters[i] = newAttrPrompter(sc.table, c)
	}
	keys := make([]string, len(keyRows))
	for i, row := range keyRows {
		keys[i] = row[0].AsText()
	}
	cfg := sc.cfg()
	window := len(keyRows)
	if sc.windowed {
		window = plan.PrefetchWindow(cfg.Parallelism, len(sc.attrCols), cfg.Votes, cfg.BatchSize, sc.limit)
	}
	st := &attrStream{
		sc:        sc,
		keyRows:   keyRows,
		keys:      keys,
		emit:      emit,
		prompters: prompters,
		layout:    voteLayout{cols: len(sc.attrCols), votes: cfg.Votes},
		window:    max(window, 1),
		primary:   llm.NewSched(cfg.Parallelism),
		fallback:  llm.NewSched(cfg.Parallelism),
	}
	return st, nil
}

// gateKeys enforces the key-only pushed conjuncts locally on the
// enumerated key rows (the key alone), before any attribute spend, keeping
// their entity keys ents parallel. The conjuncts are evaluated over one
// scratch row of the scan's schema holding each key in turn. Only rows the
// executor's re-applied filter would certainly drop are removed: a row
// whose predicate evaluation errors is kept so the error still surfaces
// where the unpushed plan would raise it. The enumeration may be memoised
// and shared with other scans, so the kept keys go to fresh slices.
func (sc *llmScan) gateKeys(keyRows []rel.Row, ents []string, keyFilter sql.Expr) ([]rel.Row, []string) {
	if keyFilter == nil || len(keyRows) == 0 {
		return keyRows, ents
	}
	pred, err := expr.CompileBool(keyFilter, sc.schema)
	if err != nil {
		// The hint is advisory; an uncompilable predicate (which the
		// executor will reject on its own) must not break the scan.
		return keyRows, ents
	}
	scratch := make(rel.Row, sc.schema.Len())
	for i := range scratch {
		scratch[i] = rel.NullOf(sc.schema.Col(i).Type)
	}
	keptRows, keptEnts := make([]rel.Row, 0, len(keyRows)), make([]string, 0, len(ents))
	for i, row := range keyRows {
		scratch[sc.keyPos] = row[0]
		ts, err := pred(scratch)
		if err == nil && ts != rel.True {
			sc.stats.KeysGated++
			continue
		}
		keptRows, keptEnts = append(keptRows, row), append(keptEnts, ents[i])
	}
	return keptRows, keptEnts
}

// canonicalBoundKeys normalizes a bind join's key values through the same
// whitespace canonicalization the parser applies to enumerated keys (see
// normalizeKeyText) and removes case-insensitive duplicates, so the bind
// gate's membership test, entity dedup and the completion cache all agree
// on one spelling per entity. Always returns a non-nil slice.
func canonicalBoundKeys(keys []string) []string {
	out := make([]string, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		norm := normalizeKeyText(k)
		if norm == "" {
			continue
		}
		lower := strings.ToLower(norm)
		if seen[lower] {
			continue
		}
		seen[lower] = true
		out = append(out, norm)
	}
	return out
}

// batchGroup returns the g-th group of a key list chunked by position into
// groups of batch — the grouping every batched ATTRS prompt is built over.
func batchGroup[T any](keys []T, g, batch int) []T {
	lo := g * batch
	return keys[lo:min(lo+batch, len(keys))]
}

// bindGate keeps the enumerated keys a bind join asked for, at batch-group
// granularity: the unbound scan chunks its key list into BatchSize groups
// by position, and a batched ATTRS answer depends on the whole group's
// prompt, so dropping individual keys would regroup the survivors and
// change the prompts (and, on a real model, the answers) of keys the join
// keeps. Instead the gate keeps every group containing at least one bound
// key — whole, so concatenating the kept groups reproduces the original
// grouping exactly (all groups are full-size except possibly the last,
// which stays last) — and returns an emit mask marking the rider keys
// that were retained only to preserve their group's prompt; their rows
// are attributed but never emitted. At BatchSize 1 groups are single keys
// and the gate degenerates to exact membership. Matching is
// case-insensitive on canonicalized spellings (like entity dedup); a kept
// row whose exact spelling differs from the outer value is still dropped
// by the executor's equality check, so the gate can only waste — never
// corrupt — an attribute prompt. ents holds the rows' entity keys.
func (sc *llmScan) bindGate(keyRows []rel.Row, ents []string) ([]rel.Row, []bool) {
	if sc.bound == nil || len(keyRows) == 0 {
		return keyRows, nil
	}
	inBound := make(map[string]bool, len(sc.bound))
	for _, k := range sc.bound {
		inBound[strings.ToLower(k)] = true
	}
	batch := sc.cfg().BatchSize
	var kept []rel.Row
	var emit []bool
	for g := 0; g*batch < len(keyRows); g++ {
		group := batchGroup(ents, g, batch)
		if !slices.ContainsFunc(group, func(k string) bool { return inBound[k] }) {
			continue
		}
		kept = append(kept, batchGroup(keyRows, g, batch)...)
		for _, k := range group {
			emit = append(emit, inBound[k])
		}
	}
	return kept, emit
}

// voteLayout is the index layout of an attribute fan-out's tasks and
// results: index i is vote i%votes of cell i/votes, and cell c is column
// c%cols of key — for batched tasks, of batch group — c/cols. Key-major
// order is the order votes merge and rows emit in.
type voteLayout struct{ cols, votes int }

func (l voteLayout) split(i int) (key, col, vote int) {
	cell := i / l.votes
	return cell / l.cols, cell % l.cols, i % l.votes
}

func (l voteLayout) index(key, col, vote int) int { return (key*l.cols+col)*l.votes + vote }

// voteSeed is the sampling seed of a vote's ATTR or ATTRS request. It
// depends on the vote index alone — not on window placement, batching or
// fallback — so every path asks a cell's votes identically.
func voteSeed(vote int) int64 { return 1000 + int64(vote) }

// attrVote is one self-consistency vote for one attribute cell.
type attrVote struct {
	val rel.Value
	ok  bool
	// failed marks a cell whose model call still failed after the full
	// retry budget (Config.PartialResults only): any failed cell drops its
	// key from the window's output.
	failed bool
}

// attrStream is the demand-driven attribute phase of a key-then-attr scan.
// Keys are attributed window by window; within a window the (batched) ATTR
// prompts fan out across the worker pool exactly as in the materialized
// scan. Windows are batch-aligned, so prompt grouping, vote seeds and the
// merged values are independent of the window size — early termination
// changes how far the key list gets, never what any row contains.
type attrStream struct {
	sc      *llmScan
	keyRows []rel.Row // the entity key alone
	keys    []string
	// emit, when non-nil, marks which keys produce output rows: bind-gate
	// rider keys are attributed (their group's prompt needs them) but
	// never emitted.
	emit      []bool
	prompters []attrPrompter // parallel to sc.attrCols
	layout    voteLayout
	window    int // keys attributed per fetch
	next      int // first key index not yet attributed
	buf       []rel.Row
	// primary and fallback accumulate the whole phase's fan-out latencies
	// across windows, so the critical-path account at full consumption is
	// identical to the single big fan-out of the materialized scan.
	primary  *llm.Sched
	fallback *llm.Sched
	// Buffers reused from window to window (and fan-out to fan-out): a
	// window's votes are merged into rows before the next one is fetched.
	calls   []callAccount // accounts of the fan-out in flight
	prompts []string      // single's prompts, one per cell
	votes   []attrVote    // single's results
}

func (st *attrStream) nextRow() (rel.Row, bool, error) {
	for len(st.buf) == 0 {
		if st.next >= len(st.keyRows) {
			return nil, false, nil
		}
		if err := st.fetchWindow(); err != nil {
			return nil, false, err
		}
	}
	row := st.buf[0]
	st.buf = st.buf[1:]
	return row, true, nil
}

// fetchWindow attributes the next window of keys and buffers their rows.
func (st *attrStream) fetchWindow() error {
	sc := st.sc
	lo := st.next
	hi := min(lo+st.window, len(st.keyRows))
	st.next = hi
	keys := st.keys[lo:hi]
	var results []attrVote
	var err error
	if sc.cfg().BatchSize > 1 && len(sc.attrCols) > 0 {
		results, err = st.batched(keys)
	} else {
		results, err = st.single(keys)
	}
	if err != nil {
		return err
	}
	sc.stats.KeysAttributed += len(keys)
	schema := sc.table.Schema
	for ki := lo; ki < hi; ki++ {
		if st.emit != nil && !st.emit[ki] {
			continue
		}
		// Graceful degradation: a key with any failed cell is dropped whole
		// rather than emitted with a fabricated NULL — a partial result must
		// be a subset of the fault-free rows, never a variation of them.
		// Only cells of failed calls are marked; merely unparsable answers
		// keep flowing through mergeVotes as ever.
		cells := results[st.layout.index(ki-lo, 0, 0):st.layout.index(ki-lo+1, 0, 0)]
		if slices.ContainsFunc(cells, func(v attrVote) bool { return v.failed }) {
			sc.stats.KeysFailed++
			continue
		}
		row := make(rel.Row, schema.Len())
		for i := range row {
			row[i] = rel.NullOf(schema.Col(i).Type)
		}
		row[sc.keyPos] = st.keyRows[ki][0]
		for ci, c := range sc.attrCols {
			base := st.layout.index(ki-lo, ci, 0)
			row[c] = mergeVotes(results[base:base+st.layout.votes], schema.Col(c).Type)
		}
		st.buf = append(st.buf, row)
	}
	return nil
}

// fanOut is the attribute phase's one way to spend model calls: it issues n
// calls on the worker pool, degrades or aborts on failure, and accounts for
// them on the scan goroutine in task order through sched (shared across
// the scan's windows, so the accumulated critical path matches one big
// fan-out). ask(i) names task i's prompt and seed; keep(i, text, ok)
// records its outcome in the caller's slot i — the completion text, or
// ok=false for a call that failed degradably. Both run on pool workers. A
// call that fails any other way aborts the fan-out with the lowest-indexed
// task's error.
func (st *attrStream) fanOut(n int, sched *llm.Sched, ask func(i int) (string, int64), keep func(i int, text string, ok bool)) error {
	sc := st.sc
	if cap(st.calls) < n {
		st.calls = make([]callAccount, n)
	}
	calls := st.calls[:n]
	err := runTasks(sc.cfg().Parallelism, n, func(i int) error {
		resp, err := sc.modelCall(ask(i))
		if err != nil {
			failed, ok := sc.degrade(err)
			if !ok {
				return err
			}
			calls[i] = failed
			keep(i, "", false)
			return nil
		}
		calls[i] = accountOf(resp)
		keep(i, resp.Text, true)
		return nil
	})
	if err != nil {
		return err
	}
	sc.stats.Prompts += n
	// Replay the latencies through the lane scheduler in task order: a
	// degraded call occupied its lane for the fault's duration.
	before := sched.Makespan()
	for _, c := range calls {
		sched.Add(c.latency)
		sc.countCall(c)
	}
	sc.addWall(sched.Makespan() - before)
	return nil
}

// keepVote records the outcome of the single-key ATTR call behind result i
// of the window over keys, reading the answer against the column and key
// its prompt named.
func (st *attrStream) keepVote(results []attrVote, keys []string, i int, text string, ok bool) {
	if !ok {
		results[i].failed = true
		return
	}
	k, col, _ := st.layout.split(i)
	c := st.sc.table.Schema.Col(st.sc.attrCols[col])
	results[i].val, results[i].ok = parseAttrCompletion(text, c.Name, keys[k], c.Type, st.sc.cfg().Tolerant)
}

// single is the unbatched attribute phase for one window of keys: one ATTR
// prompt per (key, column, vote), its results laid out as st.layout says.
func (st *attrStream) single(keys []string) ([]attrVote, error) {
	// The votes of one cell differ only in their seed, so the cell's prompt
	// is rendered once and shared.
	prompts := st.prompts[:0]
	for _, k := range keys {
		for _, p := range st.prompters {
			prompts = append(prompts, p.prompt(k))
		}
	}
	n := st.layout.index(len(keys), 0, 0)
	results := slices.Grow(st.votes[:0], n)[:n]
	clear(results)
	st.prompts, st.votes = prompts, results
	err := st.fanOut(n, st.primary,
		func(i int) (string, int64) { return prompts[i/st.layout.votes], voteSeed(i % st.layout.votes) },
		func(i int, text string, ok bool) { st.keepVote(results, keys, i, text, ok) })
	return results, err
}

// batched is the batched attribute phase for one window of keys: the
// window is chunked in order into groups of BatchSize (windows are
// batch-aligned, so the groups are the ones the materialized scan forms),
// and one ATTRS prompt asks for one column of a whole group per vote.
// Batched answers are parsed per key; cells whose line is missing or
// malformed fall back to single-key prompts in a second fan-out, so every
// (key, column, vote) cell ends with exactly one vote — the same accounting
// as the unbatched phase, at ~BatchSize fewer prompts. Results are laid out
// exactly like single's.
func (st *attrStream) batched(keys []string) ([]attrVote, error) {
	sc := st.sc
	batch := sc.cfg().BatchSize
	// One task per (group, column, vote), laid out with groups for keys.
	type batchAnswer struct {
		vals      []rel.Value
		ok, found []bool
		failed    bool // degraded call: the whole group's cells fail
	}
	tasks := make([]batchAnswer, st.layout.index((len(keys)+batch-1)/batch, 0, 0))
	err := st.fanOut(len(tasks), st.primary,
		func(i int) (string, int64) {
			g, col, vote := st.layout.split(i)
			return buildAttrBatchPrompt(sc.table, batchGroup(keys, g, batch), sc.attrCols[col]), voteSeed(vote)
		},
		func(i int, text string, ok bool) {
			if !ok {
				tasks[i].failed = true
				return
			}
			g, col, _ := st.layout.split(i)
			t := &tasks[i]
			t.vals, t.ok, t.found = parseAttrBatchCompletion(text, batchGroup(keys, g, batch), sc.table.Schema.Col(sc.attrCols[col]).Type, sc.cfg().Tolerant)
		})
	if err != nil {
		return nil, err
	}
	sc.stats.BatchedPrompts += len(tasks)

	// Scatter batched answers into the (key, column, vote) layout and
	// collect the cells that need a single-key fallback. A degraded batched
	// call fails its whole group's cells outright — no single-key repair:
	// its retry budget is already spent, and turning one failed prompt into
	// BatchSize fresh ones would amplify load exactly when the backend is
	// unhealthy. Dropping the group keeps the degraded run a strict subset.
	results := make([]attrVote, st.layout.index(len(keys), 0, 0))
	var repair []int
	for i := range results {
		k, col, vote := st.layout.split(i)
		t := &tasks[st.layout.index(k/batch, col, vote)]
		if t.failed {
			results[i].failed = true
			continue
		}
		if off := k % batch; off < len(t.found) && t.found[off] {
			results[i] = attrVote{val: t.vals[off], ok: t.ok[off]}
			continue
		}
		repair = append(repair, i)
	}
	if len(repair) == 0 {
		return results, nil
	}

	// Fallback fan-out: the single-key prompts use the same vote seeds as
	// the unbatched phase, so a repaired cell gets the answer single would
	// have retrieved for it.
	sc.stats.BatchFallbacks += len(repair)
	err = st.fanOut(len(repair), st.fallback,
		func(j int) (string, int64) {
			k, col, vote := st.layout.split(repair[j])
			return st.prompters[col].prompt(keys[k]), voteSeed(vote)
		},
		func(j int, text string, ok bool) { st.keepVote(results, keys, repair[j], text, ok) })
	return results, err
}

// mergeVotes resolves one attribute cell from its self-consistency votes:
// the value observed most often wins; ties break toward the earliest vote
// seed; all-unparsable vote sets yield NULL. Votes group as sameVote says,
// each group standing for its first member.
func mergeVotes(votes []attrVote, t rel.DataType) rel.Value {
	best, bestN := -1, 0
group:
	for i := range votes {
		if !votes[i].ok {
			continue
		}
		for j := 0; j < i; j++ {
			if votes[j].ok && sameVote(votes[j].val, votes[i].val) {
				continue group // counted when its first member was
			}
		}
		n := 1
		for j := i + 1; j < len(votes); j++ {
			if votes[j].ok && sameVote(votes[i].val, votes[j].val) {
				n++
			}
		}
		if n > bestN {
			best, bestN = i, n
		}
	}
	if best < 0 {
		return rel.NullOf(t)
	}
	return votes[best].val
}

// sameVote reports whether two vote values fall in one group: exactly when
// their canonical row keys (rel.Row.AllKey: numerics by value, text trimmed
// and case-folded) are equal. Agreeing votes are usually identical and
// disagreeing ones usually numeric, and neither case needs the key strings.
func sameVote(a, b rel.Value) bool {
	if !a.IsNull() && !b.IsNull() && a.Type().Numeric() && b.Type().Numeric() {
		// The key renders the float's shortest round-trip form: one string
		// per bit pattern (0 and -0 apart), except that every NaN reads "NaN".
		fa, fb := a.AsFloat(), b.AsFloat()
		return math.Float64bits(fa) == math.Float64bits(fb) || fa != fa && fb != fb
	}
	return a == b || rel.Row{a}.AllKey() == rel.Row{b}.AllKey()
}
