package core

import (
	"strings"
	"time"

	"llmsql/internal/llm"
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
// issue performs the model call for one round; parse turns completion text
// into rows. parse always runs on the scan goroutine in round order, so
// parser statistics and caller state (paged exclude lists) need no locking.
// When the prompt is constant across rounds (promptVaries == false) and
// Parallelism allows, rounds are independent and are prefetched concurrently
// — speculatively, since convergence may stop before consuming them all.
// Consumed rounds are accounted exactly as in the serial path, so result
// rows and ScanStats are byte-identical at any parallelism; discarded
// speculative calls show up only in the model's Usage.
func (sc *llmScan) runRounds(promptVaries bool, issue func(seed int64) (llm.CompletionResponse, error), parse func(text string) []rel.Row) ([]rel.Row, error) {
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

	seenKeys := map[string]bool{}
	appearances := map[string]int{} // rounds in which each entity appeared
	dedup := sc.cfg().Dedup
	var out []rel.Row
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
				return nil, err
			}
			sc.countCall(failed)
			sc.addWall(failed.latency)
			break
		}
		sc.stats.Prompts++
		sc.countCall(accountOf(resp))
		rows := parse(resp.Text)
		newThisRound := 0
		seenThisRound := map[string]bool{}
		for _, row := range rows {
			key := entityKey(row, sc.keyPos)
			if !seenThisRound[key] {
				seenThisRound[key] = true
				appearances[key]++
			}
			if seenKeys[key] {
				// Convergence always tracks entity novelty, but only the
				// dedup feature (ablated in Table 7) suppresses the
				// duplicate row itself.
				if dedup {
					sc.stats.Duplicates++
					continue
				}
				out = append(out, row)
				continue
			}
			seenKeys[key] = true
			out = append(out, row)
			newThisRound++
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
	out = sc.filterByConfidence(out, appearances)
	return out, nil
}

// filterByConfidence drops entities whose appearance frequency across the
// sampling rounds falls below Config.MinConfidence. Hallucinated rows tend
// to be one-off samples while real entities recur, so the filter trades a
// little recall for precision (swept in Table 8).
func (sc *llmScan) filterByConfidence(rows []rel.Row, appearances map[string]int) []rel.Row {
	minConf := sc.cfg().MinConfidence
	rounds := sc.stats.Rounds
	if minConf <= 0 || rounds <= 1 {
		return rows
	}
	// Paged scans exclude previously seen keys, so every entity appears in
	// exactly one round by construction — frequency is meaningless there.
	if sc.strategy == StrategyPaged {
		return rows
	}
	keyPos := sc.keyPos
	kept := rows[:0]
	for _, row := range rows {
		conf := float64(appearances[entityKey(row, keyPos)]) / float64(rounds)
		if conf+1e-9 < minConf {
			sc.stats.LowConfidenceDropped++
			continue
		}
		kept = append(kept, row)
	}
	return kept
}

// entityKey is the dedup/convergence identity of a row: the parse-time
// normalized key (see normalizeKeyText), case-folded. The normalization
// here is defensive — rows from parseListCompletion already carry
// canonical keys.
func entityKey(row rel.Row, keyPos int) string {
	return strings.ToLower(normalizeKeyText(row[keyPos].AsText()))
}

// parseRows parses a LIST or KEYS completion into rows over cols, folding
// the parser's counters into the scan's.
func (sc *llmScan) parseRows(text string, cols []int) []rel.Row {
	rows, stats := parseListCompletion(text, sc.table.Schema, cols, sc.keyPos, sc.cfg().Tolerant)
	sc.stats.Parse.Add(stats)
	return rows
}

// enumerate runs the constant-prompt enumeration of cols: the full-table
// scan's LIST prompt, or the KEYS prompt of the key-then-attr pipeline.
func (sc *llmScan) enumerate(prompt string, cols []int) ([]rel.Row, error) {
	return sc.runRounds(false,
		func(seed int64) (llm.CompletionResponse, error) { return sc.modelCall(prompt, seed) },
		func(text string) []rel.Row { return sc.parseRows(text, cols) })
}

func (sc *llmScan) runFullTable() ([]rel.Row, error) {
	return sc.enumerate(buildListPrompt(sc.table, sc.cols, sc.filter, nil, 0), sc.cols)
}

func (sc *llmScan) runPaged() ([]rel.Row, error) {
	// Paged enumeration: each page excludes everything already seen; the
	// rounds machinery handles convergence across pages. Pages form a
	// dependency chain (each prompt needs the previous pages' keys), so
	// promptVaries keeps them strictly serial.
	var exclude []string
	excludeSet := map[string]bool{}
	return sc.runRounds(true,
		func(seed int64) (llm.CompletionResponse, error) {
			return sc.modelCall(buildListPrompt(sc.table, sc.cols, sc.filter, exclude, pageSize), seed)
		},
		func(text string) []rel.Row {
			rows := sc.parseRows(text, sc.cols)
			for _, row := range rows {
				key := entityKey(row, sc.keyPos)
				if !excludeSet[key] {
					excludeSet[key] = true
					exclude = append(exclude, row[sc.keyPos].AsText())
				}
			}
			return rows
		})
}

// roundZeroRequests returns the deterministic round-0 enumeration requests
// of a scan, one per enumeration shape — LIST, paged page 0, KEYS — whatever
// strategy it runs: the fingerprints warmHitRate probes the persistent
// cache with, and the head of a materialized view's manifest.
func (s *LLMStore) roundZeroRequests(sp *scanSpec) [3]llm.CompletionRequest {
	return [3]llm.CompletionRequest{
		s.cfg.request(buildListPrompt(sp.table, sp.cols, sp.filter, nil, 0), 0),
		s.cfg.request(buildListPrompt(sp.table, sp.cols, sp.filter, nil, pageSize), 0),
		s.cfg.request(buildKeysPrompt(sp.table, sp.keyFilter(), nil, 0), 0),
	}
}
