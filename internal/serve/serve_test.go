package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"llmsql/internal/core"
	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/rel"
	"llmsql/internal/world"
)

func testWorld() *world.World {
	return world.Generate(world.Config{Seed: 7, Countries: 30, Movies: 15, Laureates: 10, Companies: 10})
}

// servingConfig is the property-test workload shape: the key-then-attr hot
// path with voting, sampling and both fan-out axes live.
func servingConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Strategy = core.StrategyKeyThenAttr
	cfg.Votes = 2
	cfg.MaxRounds = 3
	cfg.Temperature = 0.7
	cfg.Parallelism = 2
	cfg.BatchSize = 2
	return cfg
}

// renderRows serializes rows byte-exactly for comparison.
func renderRows(rows []rel.Row) string {
	var b strings.Builder
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.SQLLiteral())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// startServer serves the group on a unix socket in a test dir and returns
// the socket address plus the server (for stats and shutdown).
func startServer(t *testing.T, g *core.EngineGroup, cfg Config) (string, *Server) {
	t.Helper()
	cfg.Group = g
	srv := NewServer(cfg)
	sock := filepath.Join(t.TempDir(), "llmsql.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return sock, srv
}

// TestServePropertyCoalescedSessionsReproduceSoloRun is the tentpole
// property: K concurrent sessions issuing the same query through the server
// produce rows, Usage and per-session ScanStats byte-identical to a solo
// engine run, while the backend sees exactly one live fan-out. The solo run
// is recorded and the server replays the trace, so any extra or altered
// request the serving path issued would fail loudly as a replay miss.
func TestServePropertyCoalescedSessionsReproduceSoloRun(t *testing.T) {
	w := testWorld()
	const query = "SELECT name, capital, population FROM country"

	// Solo reference run, recording the base-model traffic.
	trace := llm.NewTrace()
	soloCfg := servingConfig()
	soloCfg.RecordTrace = trace
	solo, err := core.Open(llm.NewSynthLM(w, llm.ProfileMedium, 7), soloCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range w.DomainNames() {
		solo.RegisterWorldDomain(w.Domain(name))
	}
	soloRes, err := solo.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Len() == 0 {
		t.Fatal("recording captured nothing")
	}
	// Round-trip the fixture through disk like the checked-in ones do.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := trace.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := llm.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}

	// The served runs replay the recorded traffic.
	grpCfg := servingConfig()
	grpCfg.ReplayTrace = loaded
	g, err := core.NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), grpCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, name := range w.DomainNames() {
		g.RegisterWorldDomain(w.Domain(name))
	}
	addr, srv := startServer(t, g, Config{})

	const K = 4
	responses := make([]*Response, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if _, err := c.Hello("t" + string(rune('a'+i))); err != nil {
				t.Error(err)
				return
			}
			resp, err := c.Query(query, nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()

	soloRows := renderRows(soloRes.Result.Rows)
	soloPrompts := 0
	for _, s := range soloRes.Scans {
		soloPrompts += s.Prompts
	}
	totalCoalesced := 0
	for i, resp := range responses {
		if resp == nil {
			t.Fatalf("session %d got no response", i)
		}
		if !resp.OK {
			t.Fatalf("session %d failed: %s (%s)", i, resp.Error, resp.Code)
		}
		res, err := DecodeRows(resp.Columns, resp.Types, resp.Rows)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if got := renderRows(res.Rows); got != soloRows {
			t.Fatalf("session %d rows differ from solo run", i)
		}
		if !reflect.DeepEqual(*resp.Usage, soloRes.Usage) {
			t.Fatalf("session %d usage differs:\n  got  %+v\n  want %+v", i, *resp.Usage, soloRes.Usage)
		}
		scans := make([]core.ScanStats, len(resp.Scans))
		copy(scans, resp.Scans)
		for j := range scans {
			totalCoalesced += scans[j].CoalescedHits
			scans[j].CoalescedHits = 0
		}
		if !reflect.DeepEqual(scans, soloRes.Scans) {
			t.Fatalf("session %d scans differ:\n  got  %+v\n  want %+v", i, scans, soloRes.Scans)
		}
	}
	// Exactly one fan-out reached the backend; every other consumed call
	// was coalesced.
	stats := srv.Stats()
	if got, want := stats.Group.Coalescer.LiveCalls, soloRes.Usage.Calls; got != want {
		t.Fatalf("live calls = %d, want one fan-out = %d", got, want)
	}
	if want := (K - 1) * soloPrompts; totalCoalesced != want {
		t.Fatalf("coalesced consumed calls = %d, want %d", totalCoalesced, want)
	}
	if got, want := stats.Group.Billed.Calls, K*soloRes.Usage.Calls; got != want {
		t.Fatalf("billed calls = %d, want %d", got, want)
	}
	if got, want := stats.Group.Live.TotalTokens(), soloRes.Usage.TotalTokens(); got != want {
		t.Fatalf("live tokens = %d, want solo %d", got, want)
	}
	if stats.Queries != K || stats.TotalSessions != K {
		t.Fatalf("server stats: %+v", stats)
	}
}

func TestServePreparedStatementsAndNamedDefaults(t *testing.T) {
	w := testWorld()
	cfg := servingConfig()
	g, err := core.NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.RegisterWorldDomain(w.Domain("country"))
	addr, _ := startServer(t, g, Config{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Prepared statement with positional parameters.
	prep, err := c.Do(Request{Op: "prepare", SQL: "SELECT name FROM country WHERE population > $1"})
	if err != nil || !prep.OK {
		t.Fatalf("prepare: %+v err=%v", prep, err)
	}
	r1, err := c.Do(Request{Op: "stmt", Stmt: prep.Stmt, Args: []any{int64(20)}})
	if err != nil || !r1.OK {
		t.Fatalf("stmt: %+v err=%v", r1, err)
	}
	direct, err := c.Query("SELECT name FROM country WHERE population > 20", nil, nil)
	if err != nil || !direct.OK {
		t.Fatalf("query: %+v err=%v", direct, err)
	}
	if !reflect.DeepEqual(r1.Rows, direct.Rows) {
		t.Fatal("prepared rows differ from direct query")
	}

	// Session named-parameter defaults: set once, use implicitly.
	if resp, err := c.Do(Request{Op: "set", Named: map[string]any{"minpop": 20}}); err != nil || !resp.OK {
		t.Fatalf("set: %+v err=%v", resp, err)
	}
	r2, err := c.Query("SELECT name FROM country WHERE population > :minpop", nil, nil)
	if err != nil || !r2.OK {
		t.Fatalf("named default: %+v err=%v", r2, err)
	}
	if !reflect.DeepEqual(r2.Rows, direct.Rows) {
		t.Fatal("default-bound rows differ")
	}
	// Explicit named bindings win over defaults; statements without params
	// are not polluted by stored defaults.
	r3, err := c.Query("SELECT name FROM country WHERE population > :minpop", nil, map[string]any{"minpop": 1000000})
	if err != nil || !r3.OK {
		t.Fatalf("named override: %+v err=%v", r3, err)
	}
	if len(r3.Rows) != 0 {
		t.Fatalf("override ignored: got %d rows", len(r3.Rows))
	}
	if resp, err := c.Query("SELECT name FROM country LIMIT 1", nil, nil); err != nil || !resp.OK {
		t.Fatalf("param-less query with defaults set: %+v err=%v", resp, err)
	}
	// Unset removes the default.
	if resp, err := c.Do(Request{Op: "set", Named: map[string]any{"minpop": nil}}); err != nil || !resp.OK {
		t.Fatalf("unset: %+v err=%v", resp, err)
	}
	r4, err := c.Query("SELECT name FROM country WHERE population > :minpop", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r4.OK || !strings.Contains(r4.Error, "parameter") {
		t.Fatalf("expected parameter-binding error, got %+v", r4)
	}

	// close_stmt invalidates the handle.
	if resp, err := c.Do(Request{Op: "close_stmt", Stmt: prep.Stmt}); err != nil || !resp.OK {
		t.Fatalf("close_stmt: %+v err=%v", resp, err)
	}
	if resp, err := c.Do(Request{Op: "stmt", Stmt: prep.Stmt, Args: []any{int64(1)}}); err != nil || resp.OK {
		t.Fatalf("closed stmt must fail: %+v err=%v", resp, err)
	}
}

// TestServeExplainStatements: plans reach clients as statements through the
// query and stmt ops. EXPLAIN returns plan rows without a model call or a
// token charged; EXPLAIN ANALYZE executes, returns the plan annotated with
// observed row counts, and is charged the executed query's tokens. Both go
// through admission and count as queries.
func TestServeExplainStatements(t *testing.T) {
	w := testWorld()
	g, err := core.NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), servingConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.RegisterWorldDomain(w.Domain("country"))
	addr, srv := startServer(t, g, Config{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("planner"); err != nil {
		t.Fatal(err)
	}
	tokensUsed := func() int { return srv.Stats().Admission.Tenants["planner"].TokensUsed }
	plan := func(what string, resp *Response, err error) string {
		t.Helper()
		if err != nil || !resp.OK {
			t.Fatalf("%s: %+v err=%v", what, resp, err)
		}
		if !reflect.DeepEqual(resp.Columns, []string{"plan"}) || len(resp.Rows) == 0 {
			t.Fatalf("%s: no plan rows: columns %v, %d rows", what, resp.Columns, len(resp.Rows))
		}
		var b strings.Builder
		for _, row := range resp.Rows {
			b.WriteString(row[0].(string))
			b.WriteByte('\n')
		}
		return b.String()
	}
	prepare := func(sqlText string) int64 {
		t.Helper()
		resp, err := c.Do(Request{Op: "prepare", SQL: sqlText})
		if err != nil || !resp.OK {
			t.Fatalf("prepare %q: %+v err=%v", sqlText, resp, err)
		}
		return resp.Stmt
	}

	explained := []struct {
		what string
		req  Request
		want string
	}{
		{"query EXPLAIN", Request{Op: "query", SQL: "EXPLAIN SELECT name FROM country WHERE population > 20"}, "Scan country"},
		{"stmt EXPLAIN unbound", Request{Op: "stmt", Stmt: prepare("EXPLAIN SELECT name FROM country WHERE population > $1")}, "population > $1"},
		{"stmt EXPLAIN bound", Request{Op: "stmt", Stmt: prepare("EXPLAIN SELECT name FROM country WHERE population > $1"), Args: []any{int64(20)}}, "population > 20"},
	}
	for _, tc := range explained {
		resp, err := c.Do(tc.req)
		if text := plan(tc.what, resp, err); !strings.Contains(text, tc.want) {
			t.Fatalf("%s: plan lacks %q:\n%s", tc.what, tc.want, text)
		}
		if resp.Usage.Calls != 0 || len(resp.Scans) != 0 {
			t.Fatalf("%s executed: usage %+v, %d scans", tc.what, *resp.Usage, len(resp.Scans))
		}
	}
	if used := tokensUsed(); used != 0 {
		t.Fatalf("EXPLAIN charged the tenant %d tokens", used)
	}

	analyzed := []struct {
		what string
		req  Request
	}{
		{"query EXPLAIN ANALYZE", Request{Op: "query", SQL: "EXPLAIN ANALYZE SELECT name FROM country WHERE population > 20"}},
		{"stmt EXPLAIN ANALYZE", Request{Op: "stmt", Stmt: prepare("EXPLAIN ANALYZE SELECT name FROM country WHERE population > $1"), Args: []any{int64(20)}}},
	}
	for _, tc := range analyzed {
		before := tokensUsed()
		resp, err := c.Do(tc.req)
		if text := plan(tc.what, resp, err); !strings.Contains(text, "[rows=") {
			t.Fatalf("%s: plan carries no row counts:\n%s", tc.what, text)
		}
		if len(resp.Scans) == 0 || resp.Usage.TotalTokens() == 0 {
			t.Fatalf("%s did not execute: usage %+v, %d scans", tc.what, *resp.Usage, len(resp.Scans))
		}
		if charged := tokensUsed() - before; charged != resp.Usage.TotalTokens() {
			t.Fatalf("%s charged the tenant %d tokens, want the query's %d", tc.what, charged, resp.Usage.TotalTokens())
		}
	}
	if got, want := srv.Stats().Queries, len(explained)+len(analyzed); got != want {
		t.Fatalf("server counted %d queries, want %d", got, want)
	}
}

func TestServeExecVisibleAcrossSessions(t *testing.T) {
	w := testWorld()
	g, err := core.NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), servingConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	addr, _ := startServer(t, g, Config{})

	a, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if resp, err := a.Exec("CREATE TABLE note (id INT PRIMARY KEY, body TEXT)"); err != nil || !resp.OK {
		t.Fatalf("create: %+v err=%v", resp, err)
	}
	if resp, err := a.Exec("INSERT INTO note VALUES (1, 'hello')"); err != nil || !resp.OK {
		t.Fatalf("insert: %+v err=%v", resp, err)
	}
	resp, err := b.Query("SELECT body FROM note", nil, nil)
	if err != nil || !resp.OK {
		t.Fatalf("cross-session read: %+v err=%v", resp, err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0] != "hello" {
		t.Fatalf("rows: %+v", resp.Rows)
	}
}

// TestServeRefreshKeepsOtherSessionsPlans: a session's materialized views
// are its own, so a REFRESH through one connection leaves the plans another
// session cached valid: that session's next identical query is a plan-cache
// hit.
func TestServeRefreshKeepsOtherSessionsPlans(t *testing.T) {
	w := testWorld()
	g, err := core.NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), servingConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.RegisterWorldDomain(w.Domain("country"))
	addr, srv := startServer(t, g, Config{})
	// connect dials a client and returns it with the engine of the session
	// the server opened for it.
	connect := func() (*Client, *core.Engine) {
		t.Helper()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if resp, err := c.Do(Request{Op: "ping"}); err != nil || !resp.OK {
			t.Fatalf("ping: %+v err=%v", resp, err)
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for s := range srv.sessions {
			if s.id == int64(srv.total) {
				return c, s.eng
			}
		}
		t.Fatal("no session for the new connection")
		return nil, nil
	}
	a, _ := connect()
	b, bEng := connect()

	if resp, err := a.Exec("CREATE MATERIALIZED VIEW top AS SELECT name, capital FROM country"); err != nil || !resp.OK {
		t.Fatalf("create view: %+v err=%v", resp, err)
	}
	const q = "SELECT name FROM country LIMIT 3"
	if resp, err := b.Query(q, nil, nil); err != nil || !resp.OK {
		t.Fatalf("query: %+v err=%v", resp, err)
	}
	cached := bEng.PlanCacheStats()
	if resp, err := a.Exec("REFRESH MATERIALIZED VIEW top"); err != nil || !resp.OK {
		t.Fatalf("refresh: %+v err=%v", resp, err)
	}
	if resp, err := b.Query(q, nil, nil); err != nil || !resp.OK {
		t.Fatalf("query: %+v err=%v", resp, err)
	}
	if s := bEng.PlanCacheStats(); s.Hits != cached.Hits+1 || s.Misses != cached.Misses {
		t.Fatalf("a REFRESH through another session dropped this session's plan: %+v, was %+v", s, cached)
	}
}

func TestServeTokenBudgetRejectsAndIsObservable(t *testing.T) {
	w := testWorld()
	g, err := core.NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), servingConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.RegisterWorldDomain(w.Domain("country"))
	addr, srv := startServer(t, g, Config{Admission: AdmissionConfig{TenantTokens: 1}})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("smalltenant"); err != nil {
		t.Fatal(err)
	}
	// First query is admitted (the budget is checked, not reserved) and its
	// billed tokens exhaust the budget.
	first, err := c.Query("SELECT name FROM country LIMIT 1", nil, nil)
	if err != nil || !first.OK {
		t.Fatalf("first query: %+v err=%v", first, err)
	}
	second, err := c.Query("SELECT name FROM country LIMIT 1", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.OK || second.Code != CodeBudget {
		t.Fatalf("expected budget rejection, got %+v", second)
	}
	stats := srv.Stats()
	ts := stats.Admission.Tenants["smalltenant"]
	if stats.Admission.Budget != 1 || ts.Rejected != 1 || ts.TokensUsed < 1 {
		t.Fatalf("admission stats: %+v", stats.Admission)
	}
}

func TestAdmissionConcurrencyAndQueue(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 50 * time.Millisecond})
	rel1, err := a.Acquire("t")
	if err != nil {
		t.Fatal(err)
	}
	// Slot taken, queue empty: a second acquire waits and times out.
	if _, err := a.Acquire("t"); err == nil {
		t.Fatal("expected queue-timeout")
	} else if rej := err.(*RejectError); rej.Code != CodeQueueTimeout {
		t.Fatalf("code = %s", rej.Code)
	}
	// Fill the queue, then the next arrival bounces immediately.
	done := make(chan error, 1)
	go func() {
		r, err := a.Acquire("t")
		if err == nil {
			r(0)
		}
		done <- err
	}()
	for {
		if a.Stats().Waiting == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := a.Acquire("t"); err == nil {
		t.Fatal("expected queue-full")
	} else if rej := err.(*RejectError); rej.Code != CodeQueueFull {
		t.Fatalf("code = %s", rej.Code)
	}
	rel1(0) // frees the slot for the queued waiter
	if err := <-done; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	s := a.Stats()
	if s.Admitted != 2 || s.QueueFull != 1 || s.QueueTimeout != 1 || s.Rejected != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestAdmissionTenantConcurrency(t *testing.T) {
	a := NewAdmission(AdmissionConfig{TenantConcurrent: 1})
	rel1, err := a.Acquire("t1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire("t1"); err == nil {
		t.Fatal("expected tenant-concurrency rejection")
	} else if rej := err.(*RejectError); rej.Code != CodeTenantConcurrency {
		t.Fatalf("code = %s", rej.Code)
	}
	// Other tenants are unaffected.
	rel2, err := a.Acquire("t2")
	if err != nil {
		t.Fatal(err)
	}
	rel2(0)
	rel1(0)
	if rel3, err := a.Acquire("t1"); err != nil {
		t.Fatal(err)
	} else {
		rel3(0)
	}
}

func TestServeIdleTimeoutClosesSession(t *testing.T) {
	w := testWorld()
	g, err := core.NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), servingConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	addr, srv := startServer(t, g, Config{IdleTimeout: 50 * time.Millisecond})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Do(Request{Op: "ping"}); err != nil || !resp.OK {
		t.Fatalf("ping: %+v err=%v", resp, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session not reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Do(Request{Op: "ping"}); err == nil {
		t.Fatal("connection should be closed after idle timeout")
	}
}

func TestServeGracefulShutdownDrains(t *testing.T) {
	w := testWorld()
	g, err := core.NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), servingConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	cfg := Config{Group: g}
	srv := NewServer(cfg)
	sock := filepath.Join(t.TempDir(), "llmsql.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Do(Request{Op: "ping"}); err != nil || !resp.OK {
		t.Fatalf("ping: %+v err=%v", resp, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The idle session was closed and new connections are refused.
	if _, err := c.Do(Request{Op: "ping"}); err == nil {
		t.Fatal("drained connection should be closed")
	}
	if _, err := Dial(sock); err == nil {
		t.Fatal("dial after shutdown should fail")
	}
}

func TestProtocolValueRoundTrip(t *testing.T) {
	schema := rel.NewSchema(
		rel.Column{Name: "b", Type: rel.TypeBool},
		rel.Column{Name: "i", Type: rel.TypeInt},
		rel.Column{Name: "f", Type: rel.TypeFloat},
		rel.Column{Name: "t", Type: rel.TypeText},
	)
	rows := []rel.Row{
		{rel.Bool(true), rel.Int(9007199254740993), rel.Float(0.1), rel.Text("héllo|x")},
		{rel.Null(), rel.NullOf(rel.TypeInt), rel.NullOf(rel.TypeFloat), rel.NullOf(rel.TypeText)},
	}
	res := &exec.Result{Schema: schema, Rows: rows}
	cols, types, wire := EncodeRows(res)

	// Round-trip through real JSON, like the wire does. The big int is
	// beyond float64 precision and the float has no exact binary form, so
	// this catches any lossy re-encoding.
	var resp Response
	raw, err := json.Marshal(&Response{OK: true, Columns: cols, Types: types, Rows: wire})
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRows(resp.Columns, resp.Types, resp.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(got.Rows) != renderRows(rows) {
		t.Fatalf("round trip changed rows:\n%s\nvs\n%s", renderRows(got.Rows), renderRows(rows))
	}
	if got.Schema.String() != schema.String() {
		t.Fatalf("schema: %s vs %s", got.Schema.String(), schema.String())
	}
}

// TestServeDrainingRejectionCode pins the machine-readable shutdown
// rejection: a request that slips into the drain window — decoded after
// Shutdown marked the session closing but before its connection closed —
// is answered with ok=false and Code "draining", so clients can tell an
// orderly shutdown from a dropped link and reconnect elsewhere instead of
// retrying the same connection. The window is inherently a race, so the
// test holds it open deterministically: marking the session in-flight
// keeps drain() from closing the idle connection, exactly as if a request
// were being handled when shutdown began.
func TestServeDrainingRejectionCode(t *testing.T) {
	w := testWorld()
	g, err := core.NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), servingConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	addr, srv := startServer(t, g, Config{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Do(Request{Op: "ping"}); err != nil || !resp.OK {
		t.Fatalf("ping: %+v err=%v", resp, err)
	}

	srv.mu.Lock()
	if len(srv.sessions) != 1 {
		srv.mu.Unlock()
		t.Fatalf("sessions = %d, want 1", len(srv.sessions))
	}
	var sess *session
	for s := range srv.sessions {
		sess = s
	}
	srv.mu.Unlock()

	// Hold the drain window open, then start the shutdown and wait until
	// drain() has marked the session closing (it leaves the connection up
	// because of the in-flight request). The ping's response can reach the
	// client before the session loop clears inFlight, so the flag is set
	// only once the loop has: otherwise the loop overwrites it, drain sees
	// an idle session and closes the connection under the next request.
	idleBy := time.Now().Add(5 * time.Second)
	for {
		sess.mu.Lock()
		idle := !sess.inFlight
		if idle {
			sess.inFlight = true
		}
		sess.mu.Unlock()
		if idle {
			break
		}
		if time.Now().After(idleBy) {
			t.Fatal("session never finished the ping")
		}
		time.Sleep(time.Millisecond)
	}
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sess.mu.Lock()
		closing := sess.closing
		sess.mu.Unlock()
		if closing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never marked the session closing")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := c.Do(Request{Op: "ping"})
	if err != nil {
		t.Fatalf("request in the drain window must still get a response: %v", err)
	}
	if resp.OK {
		t.Fatalf("request in the drain window succeeded: %+v", resp)
	}
	if resp.Code != CodeDraining {
		t.Fatalf("rejection code = %q, want %q", resp.Code, CodeDraining)
	}
	if resp.ID != 2 {
		t.Fatalf("draining response lost its request ID: %+v", resp)
	}
	// The rejection is terminal for this connection, and the shutdown
	// completes once the session retires.
	if _, err := c.Do(Request{Op: "ping"}); err == nil {
		t.Fatal("connection must close after the draining rejection")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeViewLifecycleAndBudgetCharging drives the materialized-view
// surface over the wire: exec builds the view (and its model spend is
// charged to the tenant), warm reads cost zero tokens, the views op reports
// freshness, and an all-warm refresh charges nothing.
func TestServeViewLifecycleAndBudgetCharging(t *testing.T) {
	w := testWorld()
	g, err := core.NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), servingConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.RegisterWorldDomain(w.Domain("country"))
	addr, srv := startServer(t, g, Config{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("viewtenant"); err != nil {
		t.Fatal(err)
	}
	build, err := c.Exec("CREATE MATERIALIZED VIEW top AS SELECT name, capital FROM country")
	if err != nil || !build.OK {
		t.Fatalf("create view: %+v err=%v", build, err)
	}
	if build.Usage == nil || build.Usage.TotalTokens() == 0 {
		t.Fatalf("view build reported no usage: %+v", build.Usage)
	}
	read, err := c.Query("SELECT name FROM top", nil, nil)
	if err != nil || !read.OK {
		t.Fatalf("view read: %+v err=%v", read, err)
	}
	if read.Usage.Calls != 0 {
		t.Fatalf("warm view read cost %d calls", read.Usage.Calls)
	}
	if len(read.Scans) != 1 || read.Scans[0].Materialized != "top" {
		t.Fatalf("scan stats: %+v", read.Scans)
	}
	views, err := c.Views()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].Name != "top" || views[0].Stale || views[0].Rows == 0 {
		t.Fatalf("views: %+v", views)
	}
	// No persistent cache in this stack, but the in-session plan and the
	// deterministic synth model make the refresh re-ask everything live:
	// usage must be charged again, and the view must stay servable.
	refresh, err := c.Exec("REFRESH MATERIALIZED VIEW top")
	if err != nil || !refresh.OK {
		t.Fatalf("refresh: %+v err=%v", refresh, err)
	}
	drop, err := c.Exec("DROP MATERIALIZED VIEW top")
	if err != nil || !drop.OK {
		t.Fatalf("drop: %+v err=%v", drop, err)
	}
	if resp, err := c.Query("SELECT name FROM top", nil, nil); err != nil || resp.OK {
		t.Fatalf("dropped view still served: %+v err=%v", resp, err)
	}
	ts := srv.Stats().Admission.Tenants["viewtenant"]
	if ts.TokensUsed < build.Usage.TotalTokens() {
		t.Fatalf("tenant charged %d tokens, build alone cost %d", ts.TokensUsed, build.Usage.TotalTokens())
	}
	gs := g.Stats()
	if gs.Views.Created != 1 || gs.Views.WarmReads != 1 || gs.Views.Refreshes != 1 {
		t.Fatalf("group view stats: %+v", gs.Views)
	}
}
