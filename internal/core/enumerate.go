package core

import (
	"strings"
	"sync"
	"time"

	"llmsql/internal/llm"
	"llmsql/internal/lru"
	"llmsql/internal/rel"
)

// pageSize is MAXROWS per prompt of a paged scan.
const pageSize = 40

// runRounds obtains one enumeration round per seed, accumulating rows keyed
// by entity, until MaxRounds or the convergence rule (StableRounds rounds
// without a new entity) stops it. At temperature zero a single round is
// issued — greedy decoding cannot produce new rows — unless each round
// changes the prompt (paged scans, which pass an empty prompt).
//
// issue performs the model call for one round; each completion is parsed over
// cols into rows of width cells (see parseListCompletion) on the scan
// goroutine in round order, so parser statistics and caller state (the paged
// exclude list, which onNew, when non-nil, receives the first row of each new
// entity for) need no locking. When the prompt is
// constant across rounds and Parallelism allows,
// rounds are independent and are prefetched concurrently — speculatively,
// since convergence may stop before consuming them all. Consumed rounds are
// accounted exactly as in the serial path, so result rows and ScanStats are
// byte-identical at any parallelism; discarded speculative calls show up only
// in the model's Usage.
//
// A constant-prompt enumeration is memoised under its prompt (see enumMemo):
// while each round's text is the one the memoised enumeration consumed, the
// round is accounted but neither parsed nor merged, and at its last round the
// memoised result is returned. A differing text or a failed round merges the
// rounds consumed so far from scratch and carries on.
//
// The rows come back with their entity keys: keys[i] belongs to rows[i].
func (sc *llmScan) runRounds(prompt string, cols []int, width int, issue func(seed int64) (llm.CompletionResponse, error), onNew func(row rel.Row)) (rows []rel.Row, keys []string, err error) {
	promptVaries := prompt == ""
	maxRounds := sc.cfg().MaxRounds
	if sc.cfg().Temperature <= 0 && !promptVaries {
		maxRounds = 1
	}

	// next yields round r's completion with critical-path accounting folded
	// in: serial rounds chain their latencies; prefetched rounds become
	// available at their virtual finish time under the lane scheduler.
	serialNext := func(round int) (llm.CompletionResponse, error) {
		resp, err := issue(int64(round))
		if err == nil {
			sc.addWall(resp.SimLatency)
		}
		return resp, err
	}
	next := serialNext
	par := sc.cfg().Parallelism
	if !promptVaries && par > 1 && maxRounds > 1 {
		// Prefetch a window of min(Parallelism, MaxRounds) rounds
		// concurrently. Speculation past the window would waste spend
		// without shortening the critical path (the lanes are already
		// full), so this caps discarded calls at Parallelism-1; rounds the
		// convergence rule wants beyond the window run serially.
		window := min(par, maxRounds)
		resps := make([]llm.CompletionResponse, window)
		errs := make([]error, window)
		runTasks(par, window, func(r int) error {
			resps[r], errs[r] = issue(int64(r))
			return nil // an error surfaces when (and if) its round is consumed
		})
		// The window never exceeds the lane count, so every round starts at
		// virtual time zero and finishes after exactly its own latency.
		var consumedWall time.Duration
		next = func(round int) (llm.CompletionResponse, error) {
			if round >= window {
				return serialNext(round)
			}
			if errs[round] != nil {
				return llm.CompletionResponse{}, errs[round]
			}
			if finish := resps[round].SimLatency; finish > consumedWall {
				sc.addWall(finish - consumedWall)
				consumedWall = finish
			}
			return resps[round], nil
		}
	}

	memo := sc.store.memo
	if promptVaries {
		memo = nil
	}
	key := enumKey{prompt: prompt, table: sc.table}
	hit := memo.get(key)
	m := merger{sc: sc, cols: cols, width: width, onNew: onNew, keepTexts: memo != nil}
	for round := 0; round < maxRounds; round++ {
		sc.stats.Rounds++
		resp, err := next(round)
		if err == nil {
			sc.stats.Prompts++
			sc.countCall(accountOf(resp))
			if hit != nil && resp.Text == hit.texts[round] {
				if round == len(hit.texts)-1 {
					sc.stats.addCounts(hit.counts)
					return hit.rows, hit.keys, nil
				}
				continue
			}
		}
		if hit != nil {
			// The round diverged from the memoised enumeration: merge the
			// rounds it agreed on, as a miss would have.
			for r, text := range hit.texts[:round] {
				m.add(text, r)
			}
			hit = nil
		}
		if err != nil {
			// A failed round stops enumeration at the rows already found.
			// Earlier rounds consumed identical completions to the
			// fault-free run (faults are keyed per request, not per call
			// order), so the surviving rows are a subset of what full
			// enumeration would have produced — unless a confidence filter
			// runs: over fewer rounds an entity needs fewer appearances to
			// pass, so rows the fault-free run drops could survive. Then the
			// query fails instead.
			account, ok := sc.degrade(err)
			if !ok || sc.cfg().MinConfidence > 0 {
				return nil, nil, err
			}
			sc.countCall(account)
			sc.addWall(account.latency)
			memo = nil // a healthy run would go on past this round
			break
		}
		if m.add(resp.Text, round) >= sc.cfg().StableRounds {
			break
		}
	}
	if !promptVaries {
		m.filterByConfidence(sc.cfg().MinConfidence, sc.stats.Rounds)
	}
	sc.stats.addCounts(m.out.counts)
	if memo != nil {
		e := m.out
		memo.put(key, &e)
	}
	return m.out.rows, m.out.keys, nil
}

// merger is an enumeration in progress: it parses and merges one round's
// completion at a time over cols into rows of width cells, into out.
type merger struct {
	sc        *llmScan
	cols      []int
	width     int
	onNew     func(row rel.Row)
	keepTexts bool // out may be memoised, so it records the round texts
	seen      entityIndex
	stable    int // rounds since the last new entity
	out       enumeration
}

// add merges round's completion text and returns the number of rounds in a
// row that found no new entity.
func (m *merger) add(text string, round int) (stable int) {
	sc, out := m.sc, &m.out
	if m.keepTexts {
		out.texts = append(out.texts, text)
	}
	p := parseCompletion(text, sc.table.Schema, m.cols, sc.keyPos, m.width, sc.cfg().Tolerant)
	dedup := sc.cfg().Dedup
	out.counts.parse.Add(p.stats)
	if m.seen.ids == nil {
		m.seen.ids = make(map[string]int32, len(p.rows))
		out.rows, out.keys = make([]rel.Row, 0, len(p.rows)), make([]string, 0, len(p.rows))
	}
	newThisRound := 0
	for i, row := range p.rows {
		if m.seen.see(p.keys[i], round) {
			out.rows, out.keys = append(out.rows, row), append(out.keys, p.keys[i])
			newThisRound++
			if m.onNew != nil {
				m.onNew(row)
			}
			continue
		}
		// Convergence always tracks entity novelty, but only the dedup
		// feature (ablated in Table 7) suppresses the duplicate row
		// itself.
		if dedup {
			out.counts.duplicates++
			continue
		}
		out.rows, out.keys = append(out.rows, row), append(out.keys, p.keys[i])
	}
	if newThisRound == 0 {
		m.stable++
	} else {
		m.stable = 0
	}
	return m.stable
}

// entityIndex is an enumeration's one map over entities: the id of each
// entity key in order of first appearance, and per id the number of rounds
// the entity appeared in and the last of them.
type entityIndex struct {
	ids         map[string]int32
	appearances []int32
	lastRound   []int32
}

// see records an appearance of the entity key in round and reports whether
// it is the entity's first.
func (x *entityIndex) see(key string, round int) (first bool) {
	id, ok := x.ids[key]
	if !ok {
		x.ids[key] = int32(len(x.appearances))
		x.appearances = append(x.appearances, 1)
		x.lastRound = append(x.lastRound, int32(round))
		return true
	}
	if x.lastRound[id] != int32(round) {
		x.lastRound[id] = int32(round)
		x.appearances[id]++
	}
	return false
}

// filterByConfidence drops entities whose appearance frequency across the
// enumeration's rounds falls below minConf, keeping rows and their keys
// parallel. Hallucinated rows tend to be one-off samples while real entities
// recur, so the filter trades a little recall for precision (swept in Table
// 8). Paged scans do not run it: they exclude previously seen keys, so every
// entity appears in exactly one round by construction.
func (m *merger) filterByConfidence(minConf float64, rounds int) {
	out := &m.out
	if minConf <= 0 || rounds <= 1 {
		return
	}
	keptRows, keptKeys := out.rows[:0], out.keys[:0]
	for i, row := range out.rows {
		conf := float64(m.seen.appearances[m.seen.ids[out.keys[i]]]) / float64(rounds)
		if conf+1e-9 < minConf {
			out.counts.lowConfidence++
			continue
		}
		keptRows, keptKeys = append(keptRows, row), append(keptKeys, out.keys[i])
	}
	out.rows, out.keys = keptRows, keptKeys
}

// entityKey is the dedup/convergence identity of a row: the parse-time
// normalized key (see normalizeKeyText), case-folded. It is computed once
// per parsed row, by parseCompletion; enumeration, the confidence filter,
// the paged exclude list and the bind gate all take the key from there.
func entityKey(key rel.Value) string {
	return strings.ToLower(normalizeKeyText(key.AsText()))
}

// parsedCompletion is a LIST or KEYS completion parsed over a column set
// into rows of one width: its rows, each row's entity key (keys[i] belongs
// to rows[i]) and the parser's counters.
type parsedCompletion struct {
	rows  []rel.Row
	keys  []string
	stats ParseStats
}

// parseCompletion parses text over cols of the schema into rows of width
// cells (see parseListCompletion) and derives each row's entity key.
func parseCompletion(text string, schema rel.Schema, cols []int, keyPos, width int, tolerant bool) parsedCompletion {
	rows, stats := parseListCompletion(text, schema, cols, keyPos, width, tolerant)
	if width != schema.Len() {
		keyPos = 0 // the key is the row
	}
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = entityKey(row[keyPos])
	}
	return parsedCompletion{rows: rows, keys: keys, stats: stats}
}

// enumeration is what one constant-prompt enumeration consumed and
// produced: the completion text of each round in round order, the merged
// rows with their entity keys, and the counters the merge moved. A memoised
// one is shared by every scan that replays it, so neither it nor its rows
// may be modified.
type enumeration struct {
	texts  []string
	rows   []rel.Row
	keys   []string
	counts enumCounts
}

// enumCounts are the ScanStats counters parsing and merging move; the
// rounds' call accounting is not among them, as a replay still performs it.
type enumCounts struct {
	parse         ParseStats
	duplicates    int
	lowConfidence int
}

func (s *ScanStats) addCounts(c enumCounts) {
	s.Parse.Add(c.parse)
	s.Duplicates += c.duplicates
	s.LowConfidenceDropped += c.lowConfidence
}

// enumMemo holds finished constant-prompt enumerations — a full-table scan's
// LIST rounds, a key-then-attr scan's KEYS rounds — so a scan whose rounds
// are answered with the texts an earlier one consumed replays its result
// instead of parsing and merging again. Merging is a function of the texts,
// the table (each registration makes a fresh record, standing for schema and
// key position), the column set and the store's fixed configuration. The
// prompt and table are the key — the prompt names the task and every column
// it enumerates, so it fixes the column set — and the texts are checked while
// the rounds arrive. So a replay returns exactly what the merge would:
// a changed answer, an invalidated cache entry or a re-registered table
// simply misses, and no invalidation path exists. Enumerations that ended
// in a failed round are not kept. A solo store has a memo iff its model
// chain has an in-memory llm.CacheModel, holding at most that cache's
// capacity in rounds; a group's sessions share one (see newBackend), as they
// share its table records and Config.
type enumMemo struct {
	mu      sync.Mutex
	entries *lru.Cache[enumKey, *enumeration]
	rounds  int // texts held across entries, at most limit
	limit   int
}

type enumKey struct {
	prompt string
	table  *VirtualTable
}

func newEnumMemo(limit int) *enumMemo {
	return &enumMemo{entries: lru.New[enumKey, *enumeration](limit), limit: limit}
}

// get returns the enumeration memoised under k, or nil — always on a nil
// memo.
func (m *enumMemo) get(k enumKey) *enumeration {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e, _ := m.entries.Get(k)
	return e
}

// put memoises e under k, replacing any entry there and evicting the least
// recently used ones until the rounds held fit the limit.
func (m *enumMemo) put(k enumKey, e *enumeration) {
	if len(e.texts) > m.limit {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.removeLocked(k)
	for m.rounds+len(e.texts) > m.limit {
		oldest, _, _ := m.entries.Oldest()
		m.removeLocked(oldest)
	}
	m.entries.Put(k, e)
	m.rounds += len(e.texts)
}

func (m *enumMemo) removeLocked(k enumKey) {
	if e, ok := m.entries.Remove(k); ok {
		m.rounds -= len(e.texts)
	}
}

// enumerate runs the constant-prompt enumeration of cols into rows of
// width cells: the full-table scan's LIST prompt, or the KEYS prompt of the
// key-then-attr pipeline, whose rows are the entity key alone.
func (sc *llmScan) enumerate(prompt string, cols []int, width int) ([]rel.Row, []string, error) {
	return sc.runRounds(prompt, cols, width,
		func(seed int64) (llm.CompletionResponse, error) { return sc.modelCall(prompt, seed) }, nil)
}

func (sc *llmScan) runFullTable() ([]rel.Row, error) {
	rows, _, err := sc.enumerate(buildListPrompt(sc.table, sc.cols, sc.filter, nil, 0), sc.cols, sc.table.Schema.Len())
	return rows, err
}

func (sc *llmScan) runPaged() ([]rel.Row, error) {
	// Paged enumeration: each page excludes every entity already seen, in
	// its first spelling; the rounds machinery handles convergence across
	// pages. Pages form a dependency chain (each prompt needs the previous
	// pages' keys), so the empty constant prompt keeps them strictly
	// serial and unmemoised.
	var exclude []string
	rows, _, err := sc.runRounds("", sc.cols, sc.table.Schema.Len(),
		func(seed int64) (llm.CompletionResponse, error) {
			return sc.modelCall(buildListPrompt(sc.table, sc.cols, sc.filter, exclude, pageSize), seed)
		},
		func(row rel.Row) { exclude = append(exclude, row[sc.keyPos].AsText()) })
	return rows, err
}

// roundZeroRequests returns the deterministic round-0 enumeration requests
// of a scan, one per enumeration shape — LIST, paged page 0, KEYS — whatever
// strategy it runs: the fingerprints warmHitRate probes the persistent
// cache with to price a scan before it runs (a scan issues at most one).
func (s *LLMStore) roundZeroRequests(sp *scanSpec) [3]llm.CompletionRequest {
	return [3]llm.CompletionRequest{
		s.cfg.request(buildListPrompt(sp.table, sp.cols, sp.filter, nil, 0), 0),
		s.cfg.request(buildListPrompt(sp.table, sp.cols, sp.filter, nil, pageSize), 0),
		s.cfg.request(buildKeysPrompt(sp.table, sp.keyFilter(), nil, 0), 0),
	}
}
