package core

import (
	"encoding/binary"
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
// issued — greedy decoding cannot produce new rows — unless promptVaries
// says each round changes the prompt (paged scans).
//
// issue performs the model call for one round; each completion is parsed over
// cols into rows of width cells (see parseListCompletion) on the scan
// goroutine in round order, so parser statistics and caller state (the paged
// exclude list, which onNew, when non-nil, receives the first row of each new
// entity for) need no locking. When the prompt is
// constant across rounds (promptVaries == false) and Parallelism allows,
// rounds are independent and are prefetched concurrently — speculatively,
// since convergence may stop before consuming them all. Consumed rounds are
// accounted exactly as in the serial path, so result rows and ScanStats are
// byte-identical at any parallelism; discarded speculative calls show up only
// in the model's Usage.
//
// The rows come back with their entity keys: keys[i] belongs to rows[i].
func (sc *llmScan) runRounds(cols []int, width int, promptVaries bool, issue func(seed int64) (llm.CompletionResponse, error), onNew func(row rel.Row)) (rows []rel.Row, keys []string, err error) {
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

	parse := sc.parser(cols, width)
	var seen entityIndex
	dedup := sc.cfg().Dedup
	stable := 0
	for round := 0; round < maxRounds; round++ {
		sc.stats.Rounds++
		resp, err := next(round)
		if err != nil {
			// A failed round stops enumeration at the rows already found.
			// Earlier rounds consumed identical completions to the
			// fault-free run (faults are keyed per request, not per call
			// order), so the surviving rows are a subset of what full
			// enumeration would have produced — unless a confidence filter
			// runs: over fewer rounds an entity needs fewer appearances to
			// pass, so rows the fault-free run drops could survive. Then the
			// query fails instead.
			failed, ok := sc.degrade(err)
			if !ok || sc.cfg().MinConfidence > 0 {
				return nil, nil, err
			}
			sc.countCall(failed)
			sc.addWall(failed.latency)
			break
		}
		sc.stats.Prompts++
		sc.countCall(accountOf(resp))
		p := parse(resp.Text)
		if seen.ids == nil {
			seen.ids = make(map[string]int32, len(p.rows))
			rows, keys = make([]rel.Row, 0, len(p.rows)), make([]string, 0, len(p.rows))
		}
		newThisRound := 0
		for i, row := range p.rows {
			if seen.see(p.keys[i], round) {
				rows, keys = append(rows, row), append(keys, p.keys[i])
				newThisRound++
				if onNew != nil {
					onNew(row)
				}
				continue
			}
			// Convergence always tracks entity novelty, but only the dedup
			// feature (ablated in Table 7) suppresses the duplicate row
			// itself.
			if dedup {
				sc.stats.Duplicates++
				continue
			}
			rows, keys = append(rows, row), append(keys, p.keys[i])
		}
		if newThisRound == 0 {
			stable++
			if stable >= sc.cfg().StableRounds {
				break
			}
		} else {
			stable = 0
		}
	}
	rows, keys = sc.filterByConfidence(rows, keys, &seen)
	return rows, keys, nil
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
// sampling rounds falls below Config.MinConfidence, keeping rows and their
// keys parallel. Hallucinated rows tend to be one-off samples while real
// entities recur, so the filter trades a little recall for precision (swept
// in Table 8).
func (sc *llmScan) filterByConfidence(rows []rel.Row, keys []string, seen *entityIndex) ([]rel.Row, []string) {
	minConf := sc.cfg().MinConfidence
	rounds := sc.stats.Rounds
	if minConf <= 0 || rounds <= 1 {
		return rows, keys
	}
	// Paged scans exclude previously seen keys, so every entity appears in
	// exactly one round by construction — frequency is meaningless there.
	if sc.strategy == StrategyPaged {
		return rows, keys
	}
	keptRows, keptKeys := rows[:0], keys[:0]
	for i, row := range rows {
		conf := float64(seen.appearances[seen.ids[keys[i]]]) / float64(rounds)
		if conf+1e-9 < minConf {
			sc.stats.LowConfidenceDropped++
			continue
		}
		keptRows, keptKeys = append(keptRows, row), append(keptKeys, keys[i])
	}
	return keptRows, keptKeys
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
// to rows[i]) and the parser's counters. A memoised one is shared by every
// scan that parses the same text, so neither it nor its rows may be
// modified.
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

// parseMemo holds the parsed form of LIST and KEYS completions, so a
// completion the session cache serves again is not parsed again. It is keyed
// by what a parse depends on — the text and the shape it is parsed into —
// so a hit returns exactly what parsing would: a changed answer, an
// invalidated cache entry or a re-registered table is a different key and
// simply misses, and no invalidation path exists. A store has one iff its
// model chain has an in-memory llm.CacheModel, with that cache's capacity.
type parseMemo struct {
	mu      sync.Mutex
	entries *lru.Cache[parseKey, parsedCompletion]
}

// parseKey identifies one parse; the parser mode is fixed per store. The
// table pointer stands for its schema and key position (Register stores a
// fresh one), shape encodes the column positions (see shapeOf) and width
// the output row width. Cache hits return the stored string, so comparing
// text is a pointer check.
type parseKey struct {
	text  string
	table *VirtualTable
	shape string
	width int
}

// shapeOf encodes column positions as a parseKey shape.
func shapeOf(cols []int) string {
	b := make([]byte, 0, len(cols))
	for _, c := range cols {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return string(b)
}

// parse returns the memoised parse under k, running parse on a miss — and
// always on a nil memo. The lock is not held while parsing.
func (m *parseMemo) parse(k parseKey, parse func() parsedCompletion) parsedCompletion {
	if m == nil {
		return parse()
	}
	m.mu.Lock()
	p, ok := m.entries.Get(k)
	m.mu.Unlock()
	if ok {
		return p
	}
	p = parse()
	m.mu.Lock()
	m.entries.Put(k, p)
	m.mu.Unlock()
	return p
}

// parser returns the scan's parse of LIST or KEYS completions over cols
// into rows of width cells, which folds the parser's counters into the
// scan's — from the store's memo when it has seen the text, counters
// included.
func (sc *llmScan) parser(cols []int, width int) func(text string) parsedCompletion {
	schema, keyPos, tolerant := sc.table.Schema, sc.keyPos, sc.cfg().Tolerant
	memo := sc.store.memo
	var shape string
	if memo != nil {
		shape = shapeOf(cols)
	}
	return func(text string) parsedCompletion {
		p := memo.parse(parseKey{text: text, table: sc.table, shape: shape, width: width}, func() parsedCompletion {
			return parseCompletion(text, schema, cols, keyPos, width, tolerant)
		})
		sc.stats.Parse.Add(p.stats)
		return p
	}
}

// enumerate runs the constant-prompt enumeration of cols into rows of
// width cells: the full-table scan's LIST prompt, or the KEYS prompt of the
// key-then-attr pipeline, whose rows are the entity key alone.
func (sc *llmScan) enumerate(prompt string, cols []int, width int) ([]rel.Row, []string, error) {
	return sc.runRounds(cols, width, false,
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
	// pages' keys), so promptVaries keeps them strictly serial.
	var exclude []string
	rows, _, err := sc.runRounds(sc.cols, sc.table.Schema.Len(), true,
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
