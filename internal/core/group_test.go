package core

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"testing"

	"llmsql/internal/llm"
	"llmsql/internal/world"
)

// groupConfig is the serving-test workload shape: the key-then-attr hot
// path with voting, sampling and both fan-out axes live, no per-session
// memory cache (so every consumed call is visible to the coalescer).
func groupConfig() Config {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Votes = 2
	cfg.MaxRounds = 3
	cfg.Temperature = 0.7
	cfg.Parallelism = 2
	cfg.BatchSize = 2
	return cfg
}

// zeroCoalesced strips the only field allowed to differ between a solo run
// and a coalesced session run.
func zeroCoalesced(scans []ScanStats) []ScanStats {
	out := make([]ScanStats, len(scans))
	for i, s := range scans {
		s.CoalescedHits = 0
		out[i] = s
	}
	return out
}

func TestGroupSessionsSoloIdenticalWithOneLiveFanOut(t *testing.T) {
	w := parWorld()
	const query = "SELECT name, capital, population FROM country"

	// Reference: a solo engine over its own model.
	solo := New(llm.NewSynthLM(w, llm.ProfileMedium, 7), groupConfig())
	for _, name := range w.DomainNames() {
		solo.RegisterWorldDomain(w.Domain(name))
	}
	soloRes, err := solo.Query(query)
	if err != nil {
		t.Fatal(err)
	}

	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), groupConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, name := range w.DomainNames() {
		g.RegisterWorldDomain(w.Domain(name))
	}

	const K = 3
	for i := 0; i < K; i++ {
		e := g.Session()
		res, err := e.Query(query)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if got, want := renderRows(res.Result.Rows), renderRows(soloRes.Result.Rows); got != want {
			t.Fatalf("session %d rows differ from solo run", i)
		}
		if res.Usage != soloRes.Usage {
			t.Fatalf("session %d usage differs: %+v vs solo %+v", i, res.Usage, soloRes.Usage)
		}
		if !reflect.DeepEqual(zeroCoalesced(res.Scans), zeroCoalesced(soloRes.Scans)) {
			t.Fatalf("session %d scans differ: %+v vs solo %+v", i, res.Scans, soloRes.Scans)
		}
		if i == 0 {
			if res.Scans[0].CoalescedHits != 0 {
				t.Fatalf("first session must be all live: %+v", res.Scans[0])
			}
		} else if got := res.Scans[0].CoalescedHits; got != res.Scans[0].Prompts {
			t.Fatalf("session %d: %d of %d consumed calls coalesced", i, got, res.Scans[0].Prompts)
		}
		g.CloseSession(e)
	}

	s := g.Stats()
	if s.Coalescer.LiveCalls != soloRes.Usage.Calls {
		t.Fatalf("live calls = %d, want one fan-out = %d", s.Coalescer.LiveCalls, soloRes.Usage.Calls)
	}
	if s.Coalescer.Hits() != (K-1)*soloRes.Usage.Calls {
		t.Fatalf("coalesced hits = %d, want %d", s.Coalescer.Hits(), (K-1)*soloRes.Usage.Calls)
	}
	if s.Billed.Calls != K*soloRes.Usage.Calls {
		t.Fatalf("billed calls = %d, want %d", s.Billed.Calls, K*soloRes.Usage.Calls)
	}
	if s.Live.Calls != soloRes.Usage.Calls || s.Live.TotalTokens() != soloRes.Usage.TotalTokens() {
		t.Fatalf("live usage %+v, want solo %+v", s.Live, soloRes.Usage)
	}
	if s.TotalSessions != K || s.Sessions != 0 {
		t.Fatalf("session counts: %+v", s)
	}
}

func TestGroupRegistrationPropagatesToLiveSessions(t *testing.T) {
	w := parWorld()
	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), groupConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	e := g.Session() // created before any table exists
	g.RegisterWorldDomain(w.Domain("country"))
	if _, err := e.Query("SELECT name FROM country LIMIT 1"); err != nil {
		t.Fatalf("live session must see tables registered later: %v", err)
	}
	// And sessions created afterwards see them too.
	e2 := g.Session()
	if _, err := e2.Query("SELECT name FROM country LIMIT 1"); err != nil {
		t.Fatal(err)
	}
	// A table registered through one session is the group's: the live
	// session sees it, and so does a later one.
	e2.RegisterWorldDomain(w.Domain("movie"))
	if _, err := e.Query("SELECT title FROM movie LIMIT 1"); err != nil {
		t.Fatalf("live session must see a table another session registered: %v", err)
	}
	if _, err := g.Session().Query("SELECT title FROM movie LIMIT 1"); err != nil {
		t.Fatalf("later session must see a table a session registered: %v", err)
	}
}

func TestGroupSharedLocalStore(t *testing.T) {
	w := parWorld()
	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), groupConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	a, b := g.Session(), g.Session()
	const q = "SELECT body FROM note"
	if err := a.Exec("CREATE TABLE note (id INT PRIMARY KEY, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	// Warm b's plan cache on a statement the write below invalidates.
	for i := 0; i < 2; i++ {
		if _, err := b.Query(q); err != nil {
			t.Fatalf("table created through session a must be visible to session b: %v", err)
		}
	}
	warm := b.PlanCacheStats()
	if warm.Hits != 1 || warm.Misses != 1 {
		t.Fatalf("b's plan cache is not warm: %+v", warm)
	}
	if err := a.Exec("INSERT INTO note VALUES (1, 'hello')"); err != nil {
		t.Fatal(err)
	}
	res, err := b.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if s := b.PlanCacheStats(); s.Misses != warm.Misses+1 || s.Hits != warm.Hits {
		t.Fatalf("a write through session a left b's plan cached: %+v, was %+v", s, warm)
	}
	if len(res.Result.Rows) != 1 || res.Result.Rows[0][0].String() != "hello" {
		t.Fatalf("write through session a must be visible to session b: rows %v", res.Result.Rows)
	}
}

func TestGroupCloseSessionFoldsBilledUsage(t *testing.T) {
	w := parWorld()
	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), groupConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.RegisterWorldDomain(w.Domain("country"))
	e := g.Session()
	res, err := e.Query("SELECT name FROM country LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	before := g.Stats()
	g.CloseSession(e)
	g.CloseSession(e) // double-close is a no-op
	after := g.Stats()
	if before.Billed != after.Billed {
		t.Fatalf("billed usage changed across close: %+v vs %+v", before.Billed, after.Billed)
	}
	if after.Billed.Calls != res.Usage.Calls {
		t.Fatalf("billed calls = %d, want %d", after.Billed.Calls, res.Usage.Calls)
	}
}

// TestGroupSessionSeesSharedDiskCache: the persistent cache belongs to the
// group, and every session must reach it — for the refresh probe, for
// invalidation, and still after another session has closed. It runs with the
// default coalescer memo and without one, where the shared disk cache itself
// serves the warm calls.
func TestGroupSessionSeesSharedDiskCache(t *testing.T) {
	for _, tc := range []struct {
		name string
		memo bool
		// The session's uncached usage for an all-warm refresh after CREATE.
		billedCalls, billedTokens int
	}{
		// The memo answers the refresh with copies of the build's live
		// calls. They keep the build's live provenance, so the session is
		// billed for them as a solo engine would be, but none reached the
		// provider, so the view counts none as live.
		{"memo", true, 5, 585},
		// Without the memo the disk cache answers, and its hits are cached.
		{"no-memo", false, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := parWorld()
			cfg := groupConfig()
			cfg.Temperature = 0 // one deterministic enumeration round
			cfg.Votes = 1
			cfg.CacheDir = t.TempDir()
			g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if !tc.memo {
				// A coalescer without a memo, before any session stacks on it.
				b := g.backend
				b.coal = llm.NewCoalescerSized(b.disk, -1)
				b.top = b.coal
			}
			g.RegisterWorldDomain(w.Domain("country"))
			g.RegisterWorldDomain(w.Domain("movie"))

			a, b := g.Session(), g.Session()
			if err := a.Exec("CREATE MATERIALIZED VIEW v AS SELECT name, capital FROM country"); err != nil {
				t.Fatal(err)
			}
			billedBefore := a.TotalUsage()
			if err := a.Exec("REFRESH MATERIALIZED VIEW v"); err != nil {
				t.Fatal(err)
			}
			warm, _ := a.View("v")
			if warm.LastWarmFingerprints == 0 || warm.LastColdFingerprints != 0 ||
				warm.LastLiveCalls != 0 || warm.LastLiveTokens != 0 {
				t.Fatalf("refresh through a session did not see the shared cache warm: %+v", warm)
			}
			if billed := a.TotalUsage().Sub(billedBefore); billed.Calls-billed.CachedCalls != tc.billedCalls ||
				billed.TotalTokens() != tc.billedTokens {
				t.Fatalf("all-warm refresh billed %+v, want %d uncached calls and %d tokens",
					billed, tc.billedCalls, tc.billedTokens)
			}
			if got, want := a.DiskCacheStats(), g.Stats().DiskCache; got != want || got.Entries == 0 {
				t.Fatalf("session reports disk cache %+v, group %+v", got, want)
			}

			reqs, err := a.ViewRequests("v")
			if err != nil {
				t.Fatal(err)
			}
			const drop = 4
			dropped := 0
			for _, req := range reqs {
				if dropped < drop {
					dropped += a.InvalidateCachedCompletions(req)
				}
			}
			if dropped != drop {
				t.Fatalf("invalidated %d cached completions, want %d (manifest %d)", dropped, drop, len(reqs))
			}
			liveBefore := g.Stats().Live.Calls
			if err := a.Exec("REFRESH MATERIALIZED VIEW v"); err != nil {
				t.Fatal(err)
			}
			info, _ := a.View("v")
			if live := g.Stats().Live.Calls - liveBefore; live != drop || info.LastLiveCalls != drop ||
				info.LastColdFingerprints != drop {
				t.Fatalf("refresh after invalidating %d made %d live calls: %+v (warm refresh: %+v)", drop, live, info, warm)
			}

			// Closing a session (both ways) must leave the group's cache open.
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			g.CloseSession(a)
			entries := g.Stats().DiskCache.Entries
			if _, err := b.Query("SELECT title, year FROM movie"); err != nil {
				t.Fatal(err)
			}
			if s := g.Stats().DiskCache; s.WriteErrors != 0 || s.Entries <= entries {
				t.Fatalf("disk cache stopped persisting after a session closed: %+v (had %d entries)", s, entries)
			}
			// The group's shared layers answer every call of the other session's
			// scan: none reaches the provider. Without the memo every one is a hit
			// in the shared disk cache.
			liveBefore = g.Stats().Live.Calls
			hitsBefore := g.Stats().DiskCache.Hits
			res, err := b.Query("SELECT name, capital FROM country")
			if err != nil {
				t.Fatal(err)
			}
			if live := g.Stats().Live.Calls - liveBefore; res.Usage.Calls == 0 || live != 0 {
				t.Fatalf("another session's scan made %d live calls, want 0 of %d", live, res.Usage.Calls)
			}
			if !tc.memo {
				if hits := g.Stats().DiskCache.Hits - hitsBefore; res.Usage.CachedCalls != res.Usage.Calls ||
					hits != res.Usage.Calls {
					t.Fatalf("another session's scan was not served from the shared cache: %+v (%d disk hits)",
						res.Usage, hits)
				}
			}
		})
	}
}

// TestGroupInvalidationReachesCoalescerMemo: with the default coalescer
// memo above the disk cache, invalidating N cached completions through a
// session makes the next REFRESH ask exactly those N prompts live — the memo
// must not go on answering for the dropped disk entries.
func TestGroupInvalidationReachesCoalescerMemo(t *testing.T) {
	w := parWorld()
	cfg := groupConfig()
	cfg.Temperature = 0
	cfg.Votes = 1
	cfg.CacheDir = t.TempDir()
	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.RegisterWorldDomain(w.Domain("country"))

	a := g.Session()
	if err := a.Exec("CREATE MATERIALIZED VIEW v AS SELECT name, capital FROM country"); err != nil {
		t.Fatal(err)
	}
	reqs, err := a.ViewRequests("v")
	if err != nil {
		t.Fatal(err)
	}
	const drop = 4
	dropped := 0
	for _, req := range reqs {
		if dropped < drop {
			dropped += a.InvalidateCachedCompletions(req)
		}
	}
	if dropped != drop {
		t.Fatalf("invalidated %d cached completions, want %d (manifest %d)", dropped, drop, len(reqs))
	}
	liveBefore := g.Stats().Live.Calls
	if err := a.Exec("REFRESH MATERIALIZED VIEW v"); err != nil {
		t.Fatal(err)
	}
	if live := g.Stats().Live.Calls - liveBefore; live != drop {
		t.Fatalf("refresh after invalidating %d cached completions made %d live calls", drop, live)
	}
}

// TestGroupMemoryHitIsNotCoalesced: a session's in-memory cache re-serving a
// response that first reached it as a coalesced copy answers from its own
// memory — the copy's Coalesced mark was the first call's, not this one's.
func TestGroupMemoryHitIsNotCoalesced(t *testing.T) {
	w := parWorld()
	cfg := groupConfig()
	cfg.CacheCapacity = 4096
	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.RegisterWorldDomain(w.Domain("country"))
	const query = "SELECT name, capital FROM country"
	if _, err := g.Session().Query(query); err != nil {
		t.Fatal(err)
	}
	b := g.Session()
	first, err := b.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if s := first.Scans[0]; s.CoalescedHits != s.Prompts || s.Prompts == 0 {
		t.Fatalf("first run: %d of %d calls coalesced, want all", s.CoalescedHits, s.Prompts)
	}
	hits := g.Stats().Coalescer.Hits()
	repeat, err := b.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if s := repeat.Scans[0]; s.CacheHits != s.Prompts || s.CoalescedHits != 0 {
		t.Fatalf("repeat: CacheHits=%d CoalescedHits=%d of %d calls, want all memory hits and none coalesced",
			s.CacheHits, s.CoalescedHits, s.Prompts)
	}
	if got := g.Stats().Coalescer.Hits(); got != hits {
		t.Fatalf("memory hits reached the coalescer: hits %d -> %d", hits, got)
	}
}

// TestGroupRetainedHeapDoesNotScaleWithSessions: what a group has parsed it
// keeps once. Sessions with the default session cache each run a repeated
// parameterised workload (4 shapes × 16 values over the default world), and
// the heap 16 of them retain, held live after two collections, must stay
// under twice what one retains. Per-session enumeration memos keyed by
// per-session table copies retained about 13.6 times as much.
func TestGroupRetainedHeapDoesNotScaleWithSessions(t *testing.T) {
	w := world.Generate(world.Config{Seed: 1})
	shapes := []struct {
		sql    string
		lo, hi int64
	}{
		{"SELECT name, capital, population FROM country WHERE population > $1 LIMIT 5", 2, 60},
		{"SELECT title, year, rating FROM movie WHERE year >= $1 ORDER BY rating DESC, title LIMIT 5", 1940, 2015},
		{"SELECT name, field, year FROM laureate WHERE year >= $1 ORDER BY year, name LIMIT 5", 1905, 2015},
		{"SELECT name, sector, revenue FROM company WHERE revenue > $1 ORDER BY revenue DESC, name LIMIT 10", 1, 40},
	}
	retained := func(sessions int) uint64 {
		cfg := DefaultConfig()
		cfg.CacheCapacity = -1
		g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		for _, name := range w.DomainNames() {
			g.RegisterWorldDomain(w.Domain(name))
		}
		before := liveHeap()
		held := make([]*Engine, sessions)
		for i := range held {
			held[i] = g.Session()
			for _, s := range shapes {
				for v := 0; v < 16; v++ {
					if _, err := held[i].Query(s.sql, s.lo+int64(v)*(s.hi-s.lo)/16); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		after := liveHeap()
		runtime.KeepAlive(held)
		return after - min(before, after)
	}
	one, sixteen := retained(1), retained(16)
	t.Logf("1 session retains %.2f MiB, 16 retain %.2f MiB", float64(one)/(1<<20), float64(sixteen)/(1<<20))
	if one == 0 || sixteen >= 2*one {
		t.Fatalf("16 sessions retain %d bytes, 1 retains %d: want under twice", sixteen, one)
	}
}

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestGroupSessionsShareOneEnumerationMemo: every session of a group reads
// the group's one enumeration memo under the group's table records. K
// sessions running at once each report a solo engine's rows, Usage and
// ScanStats (CoalescedHits aside), with and without a session cache; and a
// session's scan replays the entry an earlier session's scan stored: the
// memo keeps the same pointer and the parse and merge counters repeat.
func TestGroupSessionsShareOneEnumerationMemo(t *testing.T) {
	w := parWorld()
	queries := []string{
		"SELECT name, capital, population FROM country",
		"SELECT title, year FROM movie WHERE year > 1990",
		"SELECT l.name, c.capital FROM laureate AS l JOIN country AS c ON l.country = c.name",
	}
	for _, capacity := range []int{0, -1} {
		t.Run(fmt.Sprintf("CacheCapacity=%d", capacity), func(t *testing.T) {
			cfg := groupConfig()
			cfg.CacheCapacity = capacity
			solo := worldEngine(w, cfg)
			want := make([]*QueryResult, len(queries))
			for i, q := range queries {
				var err error
				if want[i], err = solo.Query(q); err != nil {
					t.Fatal(err)
				}
			}
			g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			for _, name := range w.DomainNames() {
				g.RegisterWorldDomain(w.Domain(name))
			}
			run := func(e *Engine) error {
				for i, q := range queries {
					res, err := e.Query(q)
					switch {
					case err != nil:
						return err
					case renderRows(res.Result.Rows) != renderRows(want[i].Result.Rows):
						return fmt.Errorf("%s: rows differ from the solo engine's", q)
					case res.Usage != want[i].Usage:
						return fmt.Errorf("%s: usage %+v, solo %+v", q, res.Usage, want[i].Usage)
					case !reflect.DeepEqual(zeroCoalesced(res.Scans), zeroCoalesced(want[i].Scans)):
						return fmt.Errorf("%s: scans %+v, solo %+v", q, res.Scans, want[i].Scans)
					}
				}
				return nil
			}
			const K = 4
			errs := make(chan error, K)
			for k := 0; k < K; k++ {
				go func() {
					e := g.Session()
					defer g.CloseSession(e)
					errs <- run(e)
				}()
			}
			for k := 0; k < K; k++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}

			memo := g.backend.memo
			entries := func() map[enumKey]*enumeration {
				held := make(map[enumKey]*enumeration)
				memo.mu.Lock()
				defer memo.mu.Unlock()
				memo.entries.OldestFirst(func(k enumKey, v *enumeration) bool {
					held[k] = v
					return true
				})
				return held
			}
			a, b := g.Session(), g.Session()
			if a.store.memo != memo || b.store.memo != memo || a.store.tables.get("country") != b.store.tables.get("country") {
				t.Fatal("sessions must share the group's memo and table records")
			}
			stored := entries()
			shared := false
			for k := range stored {
				shared = shared || k.table == a.store.tables.get("country")
			}
			if !shared {
				t.Fatal("the memo holds no enumeration of the group's country record")
			}
			first, err := a.Query(queries[0])
			if err != nil {
				t.Fatal(err)
			}
			second, err := b.Query(queries[0])
			if err != nil {
				t.Fatal(err)
			}
			if after := entries(); !maps.Equal(stored, after) {
				t.Fatalf("memo entries %v after warm scans, want %v: a session merged anew instead of replaying", after, stored)
			}
			x, y := first.Scans[0], second.Scans[0]
			if x.Parse != y.Parse || x.Duplicates != y.Duplicates || x.Parse.RowsParsed == 0 {
				t.Fatalf("replayed scan's counters %+v differ from the first session's %+v", y, x)
			}
		})
	}
}
