package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llmsql/internal/core"
	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/plan"
	"llmsql/internal/serve"
	"llmsql/internal/sql"
	"llmsql/internal/storage"
	"llmsql/internal/world"
)

// layerBenchtime is how long testing.Benchmark measures each micro row. The
// default 1s would put a traced run past the driver's per-run budget; the
// smoke test shortens it further.
var layerBenchtime = "100ms"

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink any

// maxStatements caps the statements the front-end rows cycle over, so the
// prepare-hit row's working set fits the 256-entry plan cache.
const maxStatements = 128

// layerTable collects micro rows; the first failing row sticks.
type layerTable struct {
	out metrics
	err error
}

// row times f with testing.Benchmark and stores ns-per-op scaled into unit
// ("ns" or "us") under name, and allocs per op under allocs when non-empty.
// per divides both, for rows whose op spans several calls.
func (t *layerTable) row(name, unit, allocs string, per float64, f func(b *testing.B)) {
	if t.err != nil {
		return
	}
	var failed error
	res := testing.Benchmark(func(b *testing.B) {
		defer func() {
			// A panic inside testing.Benchmark would take the process down
			// without a result line; report the row instead.
			if p := recover(); p != nil {
				failed = fmt.Errorf("%v", p)
			}
		}()
		b.ReportAllocs()
		f(b)
	})
	if failed == nil && res.N == 0 {
		failed = errors.New("no iteration ran")
	}
	if failed != nil {
		t.err = fmt.Errorf("layer row %s: %w", name, failed)
		return
	}
	ns := float64(res.T.Nanoseconds()) / float64(res.N) / per
	if unit == "us" {
		ns /= 1e3
	}
	t.out[name] = metric{ns, unit}
	if allocs != "" {
		t.out[allocs] = metric{float64(res.MemAllocs) / float64(res.N) / per, "count"}
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// fixedModel answers every request with one response: the base of rows that
// need an endless supply of never-seen requests.
type fixedModel struct{ resp llm.CompletionResponse }

func (fixedModel) Name() string { return "fixed" }
func (m fixedModel) Complete(llm.CompletionRequest) (llm.CompletionResponse, error) {
	return m.resp, nil
}

// groundTruthDB loads the world into a row store and materializes
// view_mixed's two views from it, so every workload's statements plan and
// the exec/storage rows run without a model.
func groundTruthDB(w *world.World) (*storage.DB, error) {
	db, err := world.LoadDB(w)
	if err != nil {
		return nil, err
	}
	for _, v := range viewDefs {
		res, err := runLocal(db, v.sel)
		if err != nil {
			return nil, err
		}
		tbl, err := db.CreateTable(v.name, res.Schema)
		if err != nil {
			return nil, err
		}
		if err := tbl.InsertBatch(res.Rows); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func planLocal(db *storage.DB, query string) (plan.Node, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", query)
	}
	return plan.Plan(sel, &exec.StorageCatalog{DB: db})
}

func runLocal(db *storage.DB, query string) (*exec.Result, error) {
	node, err := planLocal(db, query)
	if err != nil {
		return nil, err
	}
	return exec.Execute(node, &exec.StorageSource{DB: db})
}

// newEngine is a solo engine over the instant base with the world's tables
// registered and the init statements applied.
func newEngine(b *bed, cfg core.Config, init []string) *core.Engine {
	eng := core.New(b.memo, cfg)
	for _, name := range b.world.DomainNames() {
		eng.RegisterWorldDomain(b.world.Domain(name))
	}
	must(execInit(eng, init))
	return eng
}

// newStore is an LLMStore over model with the world's tables registered.
func newStore(w *world.World, model llm.Model, cfg core.Config) *core.LLMStore {
	store := core.NewLLMStore(model, cfg)
	for _, name := range w.DomainNames() {
		d := w.Domain(name)
		store.Register(core.VirtualTable{Name: d.Name, Description: d.Description, Schema: d.Schema, EstRows: len(d.Entities)})
	}
	return store
}

// scanRequest asks for the named columns of a domain (all when none given).
func scanRequest(d *world.Domain, cols ...string) exec.ScanRequest {
	req := exec.ScanRequest{Table: d.Name, Alias: d.Name, Schema: d.Schema}
	if len(cols) > 0 {
		req.Needed = make([]bool, d.Schema.Len())
		for _, c := range cols {
			req.Needed[d.Schema.IndexOf(c)] = true
		}
	}
	return req
}

func drainScan(store *core.LLMStore, req exec.ScanRequest) {
	it, err := store.Scan(req)
	must(err)
	rows, err := exec.Drain(it)
	must(err)
	sink = rows
}

// layerRows fills out with the per-layer micro rows: testing.Benchmark on
// inputs captured from the bed's own workload — its statements and the
// requests its record pass sent to the model — touching each package only
// through public functions. README.md names, for each row, the end-to-end
// metric it should move.
func layerRows(b *bed, tmp string, out metrics) error {
	testing.Init()
	if err := flag.Set("test.benchtime", layerBenchtime); err != nil {
		return err
	}
	t := &layerTable{out: out}

	// Snapshot the captured requests first: the core rows below push more
	// prompts through the memo model.
	reqs := append([]llm.CompletionRequest(nil), b.memo.order...)
	n := len(reqs)
	if n < 2 {
		return fmt.Errorf("workload %s captured %d model requests, need >= 2", b.wl.name, n)
	}
	var stmts []string
	seen := make(map[string]bool)
	for i := range b.wl.ops[0] {
		if o := &b.wl.ops[0][i]; o.isQuery() && !seen[o.req.SQL] && len(stmts) < maxStatements {
			seen[o.req.SQL] = true
			stmts = append(stmts, o.req.SQL)
		}
	}
	ground, err := groundTruthDB(b.world)
	if err != nil {
		return err
	}

	// sql: -> qps/p50_ms on adhoc_plan.
	var lx sql.Lexer
	t.row("sql.tokenize_ns", "ns", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			lx.Reset(stmts[i%len(stmts)])
			for {
				tok, err := lx.Next()
				must(err)
				if tok.Kind == sql.TokEOF {
					break
				}
			}
		}
	})
	t.row("sql.normalize_ns", "ns", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			s, err := sql.Normalize(stmts[i%len(stmts)])
			must(err)
			sink = s
		}
	})
	t.row("sql.parse_ns", "ns", "sql.parse_allocs", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			s, err := sql.Parse(stmts[i%len(stmts)])
			must(err)
			sink = s
		}
	})

	// plan: PlanOpts over a core.NewLLMStore catalog (views resolve from the
	// ground-truth store) -> adhoc_plan, and view_mixed's post-refresh p99.
	catalog := plan.MultiCatalog{newStore(b.world, b.memo, b.wl.cfg), &exec.StorageCatalog{DB: ground}}
	opts := plan.DefaultOptions()
	sels := make([]*sql.SelectStmt, len(stmts))
	nodes := make([]plan.Node, len(stmts))
	for i, s := range stmts {
		stmt, err := sql.Parse(s)
		if err != nil {
			return err
		}
		sels[i] = stmt.(*sql.SelectStmt)
		if nodes[i], err = plan.PlanOpts(sels[i], catalog, opts); err != nil {
			return err
		}
	}
	t.row("plan.plan_ns", "ns", "plan.plan_allocs", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			node, err := plan.PlanOpts(sels[i%len(sels)], catalog, opts)
			must(err)
			sink = node
		}
	})
	t.row("plan.explain_ns", "ns", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			sink = plan.Explain(nodes[i%len(nodes)])
		}
	})

	// llm: each layer alone over the instant base, then the serving chain.
	t.row("llm.fingerprint_ns", "ns", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			sink = llm.Fingerprint(b.memo.Name(), reqs[i%n])
		}
	})
	complete := func(m llm.Model) func(tb *testing.B) {
		return func(tb *testing.B) {
			for i := 0; i < n; i++ { // warm: fill whatever the layer retains
				_, err := m.Complete(reqs[i])
				must(err)
			}
			tb.ResetTimer()
			for i := 0; i < tb.N; i++ {
				resp, err := m.Complete(reqs[i%n])
				must(err)
				sink = resp
			}
		}
	}
	// A layer holding n entries hits on every call of the cycle; one
	// holding n/2 misses and evicts on every call (LRU under a cyclic
	// working set of twice its capacity).
	t.row("llm.cache_hit_ns", "ns", "", 1, complete(llm.NewCacheSized(b.memo, n)))
	t.row("llm.cache_miss_ns", "ns", "", 1, complete(llm.NewCacheSized(b.memo, n/2)))
	t.row("llm.coalescer_memo_hit_ns", "ns", "", 1, complete(llm.NewCoalescerSized(b.memo, n)))
	t.row("llm.coalescer_miss_evict_ns", "ns", "", 1, complete(llm.NewCoalescerSized(b.memo, n/2)))
	t.row("llm.retrier_pass_ns", "ns", "", 1, complete(llm.NewRetrier(b.memo, llm.RetryPolicy{})))
	t.row("llm.counting_pass_ns", "ns", "", 1, complete(llm.NewCounting(b.memo)))
	replay := b.trace.Replay(b.memo.Name())
	t.row("llm.replay_ns", "ns", "", 1, complete(replay))
	// The serving chain in NewEngineGroup's documented order, session
	// counting on top: -> fanout_scan qps.
	t.row("llm.stack_miss_ns_per_call", "ns", "llm.stack_miss_allocs_per_call", 1, complete(
		llm.NewCounting(llm.NewCoalescerSized(llm.NewRetrier(llm.NewCounting(replay), llm.RetryPolicy{}), n/2))))
	// The session-side hit path: -> hot_repeat.
	t.row("llm.stack_hit_ns_per_call", "ns", "", 1, complete(llm.NewCounting(llm.NewCacheSized(b.memo, n))))

	// No end-to-end workload uses the disk tier; the rows give a disk-cache
	// change a before/after.
	diskDir := filepath.Join(tmp, "disk")
	defer os.RemoveAll(diskDir)
	hitCache, err := llm.NewDiskCache(b.memo, filepath.Join(diskDir, "hit"), 0)
	if err != nil {
		return err
	}
	t.row("llm.diskcache_hit_ns", "ns", "", 1, complete(hitCache))
	if err := hitCache.Close(); err != nil {
		return err
	}
	first, err := b.memo.Complete(reqs[0])
	if err != nil {
		return err
	}
	// A 1 MiB bound keeps the segment files small: eviction and compaction
	// run as part of the steady state being timed.
	putCache, err := llm.NewDiskCache(fixedModel{first}, filepath.Join(diskDir, "put"), 1<<20)
	if err != nil {
		return err
	}
	fresh := int64(1 << 40)
	t.row("llm.diskcache_put_ns", "ns", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			req := reqs[i%n]
			fresh++
			req.Seed = fresh // never seen: every call misses and persists
			resp, err := putCache.Complete(req)
			must(err)
			sink = resp
		}
	})
	if err := putCache.Close(); err != nil {
		return err
	}

	// core.
	missCfg := b.wl.cfg
	missCfg.PlanCacheCapacity = -1
	missEng := newEngine(b, missCfg, b.wl.init)
	t.row("core.prepare_miss_us", "us", "core.prepare_miss_allocs", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			text, err := missEng.Explain(stmts[i%len(stmts)])
			must(err)
			sink = text
		}
	})
	hitEng := newEngine(b, b.wl.cfg, b.wl.init)
	t.row("core.prepare_hit_ns", "ns", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			st, err := hitEng.Prepare(stmts[i%len(stmts)])
			must(err)
			sink = st
		}
	})
	country := b.world.Domain("country")
	fullStore := newStore(b.world, b.memo, core.DefaultConfig())
	t.row("core.scan_fulltable_us", "us", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			drainScan(fullStore, scanRequest(country))
		}
	})
	fanout, err := buildWorkload("fanout_scan", b.world, 0)
	if err != nil {
		return err
	}
	calls := llm.NewCounting(b.memo)
	kaStore := newStore(b.world, calls, fanout.cfg)
	kaReq := scanRequest(country, "name", "capital", "population")
	drainScan(kaStore, kaReq)
	perScan := float64(calls.Usage().Calls)
	t.row("core.scan_keyattr_ns_per_call", "ns", "", perScan, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			drainScan(kaStore, kaReq)
		}
	})
	views, err := buildWorkload("view_mixed", b.world, 0)
	if err != nil {
		return err
	}
	viewEng := newEngine(b, views.cfg, views.init)
	t.row("core.view_refresh_us", "us", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			must(viewEng.Exec(refreshSQL))
		}
	})

	// exec: view_mixed's read shapes over the ground-truth row store.
	src := &exec.StorageSource{DB: ground}
	for _, e := range []struct{ name, query string }{
		{"exec.join_us", strings.Replace(viewJoin, "$1", "1950", 1)},
		{"exec.agg_us", viewGroupBy},
		{"exec.sort_limit_us", strings.Replace(viewSortLimit, "$1", "10", 1)},
	} {
		node, err := planLocal(ground, e.query)
		if err != nil {
			return err
		}
		t.row(e.name, "us", "", 1, func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				res, err := exec.Execute(node, src)
				must(err)
				sink = res
			}
		})
	}

	// storage: the 250-row view under reads and under refresh's bulk load.
	laureates, err := ground.Table("v_laureate")
	if err != nil {
		return err
	}
	t.row("storage.scan_us", "us", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			it, rows := laureates.Scan(), 0
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				rows++
			}
			sink = rows
		}
	})
	scratch, err := ground.CreateTable("scratch", laureates.Schema())
	if err != nil {
		return err
	}
	batch := laureates.All()
	t.row("storage.insert_batch_us", "us", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			scratch.Truncate()
			must(scratch.InsertBatch(batch))
		}
	})

	// serve.
	ping := serve.Request{Op: "ping"}
	t.row("serve.ping_us", "us", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			resp, err := b.clients[0].Do(ping)
			must(err)
			sink = resp
		}
	})
	movies := b.world.Domain("movie")
	wide := &exec.Result{Schema: movies.Schema, Rows: movies.Rows()}
	small := &exec.Result{Schema: movies.Schema, Rows: wide.Rows[:min(5, len(wide.Rows))]}
	encode := func(res *exec.Result) []byte {
		cols, types, rows := serve.EncodeRows(res)
		data, err := json.Marshal(&serve.Response{OK: true, Columns: cols, Types: types, Rows: rows})
		must(err)
		return data
	}
	t.row("serve.encode_small_us", "us", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			sink = encode(small)
		}
	})
	t.row("serve.encode_wide_us", "us", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			sink = encode(wide)
		}
	})
	wire := encode(wide)
	t.row("serve.decode_wide_us", "us", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			dec := json.NewDecoder(bytes.NewReader(wire))
			dec.UseNumber()
			var resp serve.Response
			must(dec.Decode(&resp))
			res, err := serve.DecodeRows(resp.Columns, resp.Types, resp.Rows)
			must(err)
			sink = res
		}
	})
	adm := serve.NewAdmission(serve.AdmissionConfig{})
	t.row("serve.admission_ns", "ns", "", 1, func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			release, err := adm.Acquire("bench")
			must(err)
			release(0)
		}
	})
	return t.err
}
