package core

import (
	"reflect"
	"testing"

	"llmsql/internal/llm"
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
}

func TestGroupSharedLocalStore(t *testing.T) {
	w := parWorld()
	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), groupConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	a, b := g.Session(), g.Session()
	// Warm b's plan cache on a statement the write below could invalidate.
	if err := a.Exec("CREATE TABLE note (id INT PRIMARY KEY, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	if err := a.Exec("INSERT INTO note VALUES (1, 'hello')"); err != nil {
		t.Fatal(err)
	}
	g.InvalidatePlans()
	res, err := b.Query("SELECT body FROM note")
	if err != nil {
		t.Fatalf("write through session a must be visible to session b: %v", err)
	}
	if len(res.Result.Rows) != 1 || res.Result.Rows[0][0].String() != "hello" {
		t.Fatalf("rows: %v", res.Result.Rows)
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
		name     string
		coalesce int
		// The session's uncached usage for an all-warm refresh after CREATE.
		billedCalls, billedTokens int
	}{
		// The memo answers the refresh with copies of the build's live
		// calls. They keep the build's uncached flags, so the session is
		// billed for them as a solo engine would be, but none reached the
		// provider, so the view counts none as live.
		{"memo", 0, 5, 585},
		// Without the memo the disk cache answers, and its hits are cached.
		{"no-memo", -1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := parWorld()
			cfg := groupConfig()
			cfg.Temperature = 0 // one deterministic enumeration round
			cfg.Votes = 1
			cfg.CacheDir = t.TempDir()
			cfg.CoalesceCapacity = tc.coalesce
			g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
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
			if tc.coalesce < 0 {
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
