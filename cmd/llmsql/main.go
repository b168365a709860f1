// Command llmsql runs SQL queries against LLM storage from the terminal.
//
// It wires a synthetic world, a simulated model at the chosen quality tier,
// and the query engine, then executes the query (or an interactive loop on
// stdin) and prints rows plus the retrieval report: prompts issued, tokens,
// simulated total and critical-path latency/$ (see -parallel and -cache)
// and — when -score is set — precision/recall/F1 against the world's
// ground truth. Plans are statements too: "EXPLAIN SELECT ..." prints the
// plan as result rows without executing, "EXPLAIN ANALYZE SELECT ..."
// executes and prints it annotated with per-operator row counts.
//
// With -connect it becomes a client of a running llmsql-serve instead:
// queries travel over the line/JSON protocol, execute in a server-side
// session that shares the server's coalescing backend stack, and print
// with the same row/usage/scan formatting as the embedded mode.
//
// Usage:
//
//	llmsql [flags] "SELECT name, capital FROM country WHERE population > 50"
//	llmsql [flags] "EXPLAIN SELECT name FROM country"
//	llmsql [flags]            # interactive: one query per line
//	llmsql -connect /tmp/llmsql.sock "SELECT ..."
//
// Flags: see -help, or -print-flags for the markdown reference.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"llmsql/internal/cliflags"
	"llmsql/internal/core"
	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/metrics"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/serve"
	"llmsql/internal/sql"
	"llmsql/internal/storage"
	"llmsql/internal/world"
)

func main() {
	var (
		score      = flag.Bool("score", false, "score results against the ground truth")
		connect    = flag.String("connect", "", "act as a client of llmsql-serve at this address (host:port or unix socket path) instead of embedding an engine")
		tenant     = flag.String("tenant", "", "tenant name announced to the server in -connect mode (admission quotas key on it)")
		printFlags = flag.Bool("print-flags", false, "print the flag reference as a markdown table and exit (consumed by make docs-check)")
	)
	var params paramFlags
	flag.Var(&params, "param", "bind a query parameter; repeatable. name=value binds :name, a bare value binds the next $n/? positionally. Values parse as int, float, bool or null, else text")
	var engine cliflags.EngineFlags
	engine.Register(flag.CommandLine)
	var faults cliflags.FaultFlags
	faults.Register(flag.CommandLine)
	flag.Parse()

	if *printFlags {
		fmt.Print(cliflags.Markdown(flag.CommandLine))
		return
	}

	if *connect != "" {
		if *score {
			fatal(fmt.Errorf("-score needs the embedded world's ground truth and is not available in -connect mode"))
		}
		runRemote(*connect, *tenant, &params)
		return
	}

	cfg, w, model, recordTrace, err := engine.Build()
	if err != nil {
		fatal(err)
	}
	faults.Apply(&cfg)
	eng, err := core.Open(model, cfg)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	if recordTrace != nil {
		// Persist the recorded trace on every exit path below.
		defer func() {
			if err := recordTrace.Save(engine.Record); err != nil {
				fmt.Fprintln(os.Stderr, "llmsql: save trace:", err)
			} else {
				fmt.Fprintf(os.Stderr, "recorded %d completions to %s\n", recordTrace.Len(), engine.Record)
			}
		}()
	}
	for _, name := range w.DomainNames() {
		eng.RegisterWorldDomain(w.Domain(name))
	}

	var truthDB *storage.DB
	if *score {
		if truthDB, err = world.LoadDB(w); err != nil {
			fatal(err)
		}
	}

	runOne := func(query string) bool {
		// DDL/DML goes to the local side (hybrid queries).
		if isLocalWrite(query) {
			if err := eng.Exec(query); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return false
			}
			fmt.Println("ok")
			return true
		}
		res, err := eng.Query(query, params.args()...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		fmt.Print(core.FormatResult(res.Result))
		printUsage(res.Usage)
		for _, s := range res.Scans {
			printScan(s)
		}
		if truthDB != nil {
			if err := scoreQuery(truthDB, query, &params, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
		return true
	}

	runLoop(runOne)
}

// runLoop drives runOne from the command line (one joined query) or the
// interactive prompt, shared by the embedded and -connect modes. A failed
// one-shot query exits nonzero; the interactive loop reports and carries
// on.
func runLoop(runOne func(string) bool) {
	if flag.NArg() > 0 {
		if !runOne(strings.Join(flag.Args(), " ")) {
			os.Exit(1)
		}
		return
	}

	fmt.Println("llmsql interactive — one SELECT per line, Ctrl-D to exit")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("llmsql> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "exit") || strings.EqualFold(line, "quit") {
			return
		}
		runOne(line)
	}
}

// runRemote executes queries against a llmsql-serve instance with the same
// printed output as the embedded mode; the usage and scan lines describe
// the server-side session, so cache and coalescing hits reflect sharing
// with every other connected session.
func runRemote(addr, tenant string, params *paramFlags) {
	c, err := serve.Dial(addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	hello, err := c.Hello(tenant)
	if err != nil {
		fatal(err)
	}
	if !hello.OK {
		fatal(fmt.Errorf("server rejected session: %s", hello.Error))
	}

	runOne := func(query string) bool {
		var resp *serve.Response
		var err error
		if isLocalWrite(query) {
			resp, err = c.Exec(query)
			if err == nil && resp.OK {
				fmt.Println("ok")
				return true
			}
		} else {
			// Set keeps the two binding styles exclusive, so at most one is set.
			resp, err = c.Query(query, params.pos, params.named)
		}
		if err != nil {
			// Transport failure: the session is gone, so there is no point
			// continuing an interactive loop.
			fatal(err)
		}
		if !resp.OK {
			if resp.Code != "" && resp.Code != "error" {
				fmt.Fprintf(os.Stderr, "error [%s]: %s\n", resp.Code, resp.Error)
			} else {
				fmt.Fprintln(os.Stderr, "error:", resp.Error)
			}
			return false
		}
		res, err := serve.DecodeRows(resp.Columns, resp.Types, resp.Rows)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		fmt.Print(core.FormatResult(res))
		if resp.Usage != nil {
			printUsage(*resp.Usage)
		}
		for _, s := range resp.Scans {
			printScan(s)
		}
		return true
	}

	runLoop(runOne)
}

// isLocalWrite reports whether a statement goes through Exec — local
// row-store DDL/DML or the materialized-view lifecycle — rather than the
// query path against LLM storage.
func isLocalWrite(query string) bool {
	upper := strings.ToUpper(strings.TrimSpace(query))
	return strings.HasPrefix(upper, "CREATE") || strings.HasPrefix(upper, "INSERT") ||
		strings.HasPrefix(upper, "REFRESH") || strings.HasPrefix(upper, "DROP")
}

// printUsage prints the one-line retrieval report shared by the embedded
// and -connect modes.
func printUsage(u llm.Usage) {
	fmt.Printf("model: %d calls (%d cached), %d tokens, simulated %v total / %v critical-path / $%.4f\n",
		u.Calls, u.CachedCalls, u.TotalTokens(),
		u.SimLatency.Round(1e6), u.SimWall.Round(1e6), u.SimDollars)
}

// printScan prints one per-scan statistics line.
func printScan(s core.ScanStats) {
	if s.Materialized != "" {
		fmt.Printf("scan %s [materialized, age %d]: %d rows, 0 prompts\n",
			s.Table, s.ViewAge, s.RowsEmitted)
		return
	}
	fmt.Printf("scan %s [%s]: %d prompts, %d rounds, %d rows, %d dupes dropped, %d repairs",
		s.Table, s.Label(), s.Prompts, s.Rounds, s.RowsEmitted, s.Duplicates, s.Parse.Repairs)
	if s.BatchedPrompts > 0 {
		fmt.Printf(", %d batched (%d fallbacks)", s.BatchedPrompts, s.BatchFallbacks)
	}
	if s.KeysGated > 0 || s.KeysAttributed > 0 {
		fmt.Printf(", %d keys gated, %d attributed", s.KeysGated, s.KeysAttributed)
	}
	if s.KeysBound > 0 {
		fmt.Printf(", %d keys bound", s.KeysBound)
	}
	if s.CacheHits+s.CacheMisses > 0 {
		fmt.Printf(", cache %d/%d", s.CacheHits, s.CacheHits+s.CacheMisses)
	}
	if s.DiskHits+s.DiskMisses > 0 {
		fmt.Printf(", disk %d/%d (%dB)", s.DiskHits, s.DiskHits+s.DiskMisses, s.DiskBytes)
	}
	if s.CoalescedHits > 0 {
		fmt.Printf(", %d coalesced", s.CoalescedHits)
	}
	if s.RetriesSpent > 0 || s.KeysFailed > 0 {
		fmt.Printf(", %d retries, %d keys failed", s.RetriesSpent, s.KeysFailed)
	}
	if s.HedgesLaunched > 0 {
		fmt.Printf(", hedges %d launched/%d won", s.HedgesLaunched, s.HedgesWon)
	}
	fmt.Println()
}

// paramFlags collects repeated -param flags: `name=value` entries bind
// :name parameters, bare `value` entries bind $n/? positionally in the
// order given. The two styles cannot be mixed (the parser enforces the
// same rule inside one statement).
type paramFlags struct {
	named map[string]any
	pos   []any
}

func (p *paramFlags) String() string { return "" }

func (p *paramFlags) Set(s string) error {
	if i := strings.IndexByte(s, '='); i >= 0 {
		if len(p.pos) > 0 {
			return fmt.Errorf("cannot mix named (name=value) and positional -param flags")
		}
		if p.named == nil {
			p.named = map[string]any{}
		}
		p.named[s[:i]] = parseParamValue(s[i+1:])
		return nil
	}
	if len(p.named) > 0 {
		return fmt.Errorf("cannot mix named (name=value) and positional -param flags")
	}
	p.pos = append(p.pos, parseParamValue(s))
	return nil
}

// args renders the collected flags as Engine.Query arguments.
func (p *paramFlags) args() []any {
	if len(p.named) > 0 {
		return []any{core.NamedArgs(p.named)}
	}
	return p.pos
}

// bindings renders the collected flags as SQL bindings, for binding the
// ground-truth query outside the engine.
func (p *paramFlags) bindings() *sql.Bindings {
	if len(p.named) > 0 {
		vals := make(map[string]rel.Value, len(p.named))
		for name, v := range p.named {
			vals[name] = relValue(v)
		}
		return sql.NewNamed(vals)
	}
	vals := make([]rel.Value, len(p.pos))
	for i, v := range p.pos {
		vals[i] = relValue(v)
	}
	return sql.NewPositional(vals)
}

// relValue is the SQL value of one parseParamValue result.
func relValue(v any) rel.Value {
	switch v := v.(type) {
	case int64:
		return rel.Int(v)
	case float64:
		return rel.Float(v)
	case bool:
		return rel.Bool(v)
	case string:
		return rel.Text(v)
	}
	return rel.Null()
}

// parseParamValue types a flag value: int, float, bool and null literals
// bind as their SQL types, anything else binds as text.
func parseParamValue(s string) any {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	switch strings.ToLower(s) {
	case "true":
		return true
	case "false":
		return false
	case "null":
		return nil
	}
	return s
}

// scoreQuery runs query, bound to the same -param values, on the world's
// row store and prints the engine result's precision/recall/F1 against it.
// Statements that are not a plain SELECT (EXPLAIN, DDL) have nothing to score.
func scoreQuery(db *storage.DB, query string, params *paramFlags, res *core.QueryResult) error {
	sel, err := sql.ParseSelect(query)
	if err != nil {
		return nil
	}
	if sel, err = sql.BindSelect(sel, params.bindings()); err != nil {
		return fmt.Errorf("score: baseline bind failed: %w", err)
	}
	node, err := plan.Plan(sel, &exec.StorageCatalog{DB: db})
	if err != nil {
		return fmt.Errorf("score: baseline plan failed: %w", err)
	}
	truth, err := exec.Execute(node, &exec.StorageSource{DB: db})
	if err != nil {
		return fmt.Errorf("score: baseline run failed: %w", err)
	}
	m := metrics.Compare(res.Result.Rows, truth.Rows, metrics.Options{NumTolerance: 0.02})
	fmt.Printf("score vs ground truth: precision %.3f, recall %.3f, F1 %.3f, attr-acc %.3f, hallucinated %.1f%%\n",
		m.Precision(), m.Recall(), m.F1(), m.AttrAccuracy(), 100*m.HallucinationRate())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llmsql:", err)
	os.Exit(1)
}
