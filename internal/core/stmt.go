package core

import (
	"fmt"
	"strings"
	"sync"

	"llmsql/internal/exec"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// NamedArgs binds :name parameters by name: pass one NamedArgs (or plain
// map[string]any) as the sole argument of Query/Stmt.Query.
type NamedArgs map[string]any

// prepare returns the prepared form of query, consulting the plan cache
// first (keyed on normalized SQL text, so case/whitespace/comment/placeholder
// spelling differences share one plan).
func (e *Engine) prepare(query string) (*preparedQuery, error) {
	gen := e.generation()
	var key string
	if e.plans != nil {
		k, err := sql.Normalize(query)
		if err != nil {
			return nil, err
		}
		key = k
		if pq := e.plans.get(key, gen); pq != nil {
			return pq, nil
		}
	}
	pq, err := e.planQuery(query, gen)
	if err != nil {
		return nil, err
	}
	if e.plans != nil {
		e.plans.put(key, pq)
	}
	return pq, nil
}

// planQuery parses, classifies and plans one statement. This is the single
// classification path behind Query, Explain and Prepare:
// SELECT, EXPLAIN SELECT and EXPLAIN ANALYZE SELECT are all accepted
// everywhere and behave identically.
func (e *Engine) planQuery(query string, gen catalogGen) (*preparedQuery, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	pq := &preparedQuery{gen: gen}
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		pq.kind, pq.sel = kindSelect, st
	case *sql.ExplainStmt:
		pq.sel = st.Stmt
		if st.Analyze {
			pq.kind = kindExplainAnalyze
		} else {
			pq.kind = kindExplain
		}
	case *sql.CreateTableStmt, *sql.InsertStmt:
		return nil, fmt.Errorf("core: use Exec for CREATE TABLE and INSERT statements")
	case *sql.CreateViewStmt, *sql.RefreshViewStmt, *sql.DropViewStmt:
		return nil, fmt.Errorf("core: use Exec for materialized view statements")
	default:
		return nil, fmt.Errorf("core: unsupported statement %T", stmt)
	}
	// Stale views fall back to live retrieval: their references become
	// derived tables over the defining query before planning, so the name
	// never resolves to the expired row store. Fresh views plan as ordinary
	// row-store scans, annotated for EXPLAIN. Both passes are skipped when
	// no views exist, keeping the view-free plan path allocation-identical.
	hasViews := e.hasViews()
	if hasViews {
		e.expandStaleViews(pq.sel, map[string]bool{})
	}
	node, err := plan.PlanOpts(pq.sel, e.catalog(hasViews), e.planOptions())
	if err != nil {
		return nil, err
	}
	if hasViews {
		e.annotateViewScans(node)
	}
	pq.node = node
	pq.params = sql.CollectParams(pq.sel)
	pq.named = len(pq.params) > 0 && pq.params[0].Name != ""
	return pq, nil
}

// run executes a prepared query with the given arguments, billing one
// account of its own; view, when non-nil, records the calls a materialized
// view's build or refresh completes.
func (e *Engine) run(pq *preparedQuery, args []any, view *viewRecord) (*QueryResult, error) {
	node := pq.node
	// EXPLAIN (without ANALYZE) may render a parameterized plan unbound —
	// placeholders appear as $n — but binds when arguments are supplied.
	if len(pq.params) > 0 && !(pq.kind == kindExplain && len(args) == 0) {
		binds, err := e.makeBindings(pq, args)
		if err != nil {
			return nil, err
		}
		bound, err := plan.Bind(pq.node, binds)
		if err != nil {
			return nil, err
		}
		node = bound
	} else if len(args) > 0 {
		return nil, fmt.Errorf("sql: statement has no parameters but %d argument(s) supplied", len(args))
	}

	if pq.kind == kindExplain {
		return &QueryResult{Result: planTextResult(plan.Explain(node))}, nil
	}

	a := &queryAccount{engine: e, view: view}
	var err error
	if pq.kind == kindExplainAnalyze {
		// Like a real database, EXPLAIN ANALYZE returns the annotated plan as
		// the result rows; the query's own rows are discarded after execution.
		var prof *exec.Profile
		if _, prof, err = exec.ExecuteAnalyzed(node, a); err == nil {
			a.Result = planTextResult(plan.ExplainWithRows(node, prof.Rows))
		}
	} else {
		a.Result, err = exec.Execute(node, a)
	}
	// The engine's total takes a failed query's calls too: they were spent.
	// Every pool worker has returned, so the account needs no lock here.
	a.Usage.SimDollars = float64(a.nanoUSD) / 1e9
	e.billMu.Lock()
	e.billed.Add(a.Usage)
	e.billedNano += a.nanoUSD
	e.billMu.Unlock()
	if err != nil {
		return nil, err
	}
	return &a.QueryResult, nil
}

// planTextResult wraps rendered plan text as a one-column result, a row per
// line.
func planTextResult(text string) *exec.Result {
	schema := rel.NewSchema(rel.Column{Name: "plan", Type: rel.TypeText})
	var rows []rel.Row
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		rows = append(rows, rel.Row{rel.Text(line)})
	}
	return &exec.Result{Schema: schema, Rows: rows}
}

// makeBindings converts Go argument values into typed bindings and validates
// them against the statement's parameter set (exact match: no unbound
// placeholders, no extra arguments).
func (e *Engine) makeBindings(pq *preparedQuery, args []any) (*sql.Bindings, error) {
	if pq.named {
		if len(args) != 1 {
			return nil, fmt.Errorf("sql: statement uses named parameters; pass one NamedArgs map")
		}
		var raw map[string]any
		switch m := args[0].(type) {
		case NamedArgs:
			raw = m
		case map[string]any:
			raw = m
		default:
			return nil, fmt.Errorf("sql: statement uses named parameters; pass NamedArgs, got %T", args[0])
		}
		vals := make(map[string]rel.Value, len(raw))
		for k, a := range raw {
			v, err := toValue(a)
			if err != nil {
				return nil, fmt.Errorf("sql: argument %q: %w", k, err)
			}
			vals[k] = v
		}
		if err := sql.ValidateBindings(pq.sel, 0, vals); err != nil {
			return nil, err
		}
		return sql.NewNamed(vals), nil
	}
	vals := make([]rel.Value, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("sql: argument %d: %w", i+1, err)
		}
		vals[i] = v
	}
	if err := sql.ValidateBindings(pq.sel, len(vals), nil); err != nil {
		return nil, err
	}
	return sql.NewPositional(vals), nil
}

// toValue converts a Go value into a typed SQL value.
func toValue(a any) (rel.Value, error) {
	switch v := a.(type) {
	case nil:
		return rel.Null(), nil
	case rel.Value:
		return v, nil
	case bool:
		return rel.Bool(v), nil
	case int:
		return rel.Int(int64(v)), nil
	case int8:
		return rel.Int(int64(v)), nil
	case int16:
		return rel.Int(int64(v)), nil
	case int32:
		return rel.Int(int64(v)), nil
	case int64:
		return rel.Int(v), nil
	case uint:
		return rel.Int(int64(v)), nil
	case uint8:
		return rel.Int(int64(v)), nil
	case uint16:
		return rel.Int(int64(v)), nil
	case uint32:
		return rel.Int(int64(v)), nil
	case uint64:
		if v > 1<<63-1 {
			return rel.Value{}, fmt.Errorf("uint64 value %d overflows INT", v)
		}
		return rel.Int(int64(v)), nil
	case float32:
		return rel.Float(float64(v)), nil
	case float64:
		return rel.Float(v), nil
	case string:
		return rel.Text(v), nil
	default:
		return rel.Value{}, fmt.Errorf("unsupported argument type %T", a)
	}
}

// Stmt is a prepared statement: it owns the parsed AST and planned tree of
// one SELECT (or EXPLAIN [ANALYZE] SELECT) and executes it repeatedly with
// different parameter bindings, without re-parsing or re-planning. Handles
// survive plan-cache eviction (they hold their own plan) and transparently
// re-prepare when the engine's catalog or cost model changes.
type Stmt struct {
	eng *Engine
	src string

	mu sync.Mutex
	pq *preparedQuery
}

// Prepare parses and plans query once, returning a reusable handle.
// Parameters ($1/?/:name) stay unbound until Query is called.
func (e *Engine) Prepare(query string) (*Stmt, error) {
	pq, err := e.prepare(query)
	if err != nil {
		return nil, err
	}
	return &Stmt{eng: e, src: query, pq: pq}, nil
}

// current returns the statement's plan, re-preparing if the engine's catalog
// generation moved since planning (a registered table or cost-model change
// could invalidate name resolution or the scan decisions).
func (s *Stmt) current() (*preparedQuery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pq.gen != s.eng.generation() {
		pq, err := s.eng.prepare(s.src)
		if err != nil {
			return nil, err
		}
		s.pq = pq
	}
	return s.pq, nil
}

// Query executes the prepared statement with the given arguments bound to
// its parameters: positionally for $n/?, or via one NamedArgs map for
// :name. Rows are byte-identical to Engine.Query of the same statement with
// the same values inlined as literals.
func (s *Stmt) Query(args ...any) (*QueryResult, error) {
	pq, err := s.current()
	if err != nil {
		return nil, err
	}
	return s.eng.run(pq, args, nil)
}
