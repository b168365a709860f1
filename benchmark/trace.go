package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"llmsql/internal/llm"
	"llmsql/internal/world"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files (spans inside the program are a later issue).
// Start and End are nanoseconds since the recorder's epoch. Request is shared
// by the spans of one request; Parent is the causing span's ID, 0 for a root.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// recorder keeps spans in memory; they are written out at exit.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64
	// off silences the llm.base shim for the untraced reference pass.
	off atomic.Bool
	// current is the core.query span in flight during pass B (one query at
	// a time, so every llm.base call belongs to it, worker goroutines
	// included). It is 0 during pass A: two requests are in flight and the
	// protocol carries no request id below the session, so pass A's llm.base
	// spans stay unattributed roots.
	current atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span under a fresh id.
func (r *recorder) add(name string, parent uint64, start, end time.Time) {
	r.addAs(r.nextID.Add(1), name, parent, start, end)
}

// addAs records a finished span. A root span is its own request; a child
// shares its parent's.
func (r *recorder) addAs(id uint64, name string, parent uint64, start, end time.Time) {
	s := span{ID: id, Parent: parent, Request: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
	if parent == 0 {
		s.Request = id
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts afresh.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanModel is the shim around the replay model: one llm.base span per call
// that reaches the base backend.
type spanModel struct {
	inner llm.Model
	rec   *recorder
}

func (m *spanModel) Name() string { return m.inner.Name() }

func (m *spanModel) Complete(req llm.CompletionRequest) (llm.CompletionResponse, error) {
	if m.rec.off.Load() {
		return m.inner.Complete(req)
	}
	t0 := time.Now()
	resp, err := m.inner.Complete(req)
	m.rec.add("llm.base", m.rec.current.Load(), t0, time.Now())
	return resp, err
}

// selfTimes computes, for every span named parent, its duration and the part
// of it that child spans do not cover (children may overlap: the union of
// their intervals, clipped to the parent, is what counts as covered).
func selfTimes(spans []span, parent string) (durs, selfs, covered []time.Duration) {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, p := range spans {
		if p.Name != parent {
			continue
		}
		ks := kids[p.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var cov, edge int64 = 0, p.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				cov += hi - lo
				edge = hi
			}
		}
		durs = append(durs, time.Duration(p.End-p.Start))
		selfs = append(selfs, time.Duration(p.End-p.Start-cov))
		covered = append(covered, time.Duration(cov))
	}
	return durs, selfs, covered
}

func sum(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// traced is the -trace run. On one traced bed it runs an untraced reference
// (shim silenced, no spans; window in all), pass A (2 connections through the
// socket, serve.request + llm.base spans; window) and pass B (one goroutine on
// a group.Session() engine, core.query ⊃ llm.base; window), then the
// per-layer micro rows. End-to-end metrics never come from here.
func traced(name string, seed int64, size world.Config, tmp string, warm, window time.Duration, traceOut string) (*runResult, error) {
	rec := newRecorder()
	b, err := setup(name, seed, size, tmp, rec)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer b.close()

	// Pass A, between the two halves of the untraced reference on the same
	// bed (so drift over the run cancels in trace.overhead_pct).
	reference := func() *phase {
		rec.off.Store(true)
		defer rec.off.Store(false)
		return b.run(window/2, nil)
	}
	b.run(warm, nil)
	ref1 := reference()
	rec.take() // drop the spans of the connections' init and warm-up traffic
	a := b.run(window, rec)
	if err := b.validate(a); err != nil {
		return nil, err
	}
	passA := rec.take()
	ref2 := reference()
	refQPS := float64(ref1.ok()+ref2.ok()) / (ref1.elapsed + ref2.elapsed).Seconds()

	// Pass B: a session engine driven directly, one query at a time.
	eng := b.group.Session()
	defer b.group.CloseSession(eng)
	if err := execInit(eng, b.wl.init); err != nil {
		return nil, err
	}
	ops := b.wl.solo()
	if err := lap(eng, ops, false); err != nil {
		return nil, fmt.Errorf("pass B init: %w", err)
	}
	rec.take()
	plans0 := eng.PlanCacheStats()
	queries, failedB := 0, 0
	for deadline := time.Now().Add(window); time.Now().Before(deadline); queries++ {
		o := &ops[queries%len(ops)]
		id := rec.nextID.Add(1)
		rec.current.Store(id)
		t0 := time.Now()
		d, err := runOnEngine(eng, o)
		t1 := time.Now()
		rec.current.Store(0)
		rec.addAs(id, "core.query", 0, t0, t1)
		if err != nil || d != o.digest {
			failedB++
		}
	}
	plans1 := eng.PlanCacheStats()
	passB := rec.take()

	if traceOut != "" {
		if err := writeSpans(traceOut, append(passA, passB...)); err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
	}

	var reqDurs []time.Duration
	for _, s := range passA {
		if s.Name == "serve.request" {
			reqDurs = append(reqDurs, time.Duration(s.End-s.Start))
		}
	}
	qDurs, qSelf, qCovered := selfTimes(passB, "core.query")
	reqMed := medianOf(reqDurs)
	qMed := medianOf(qDurs)

	r := newRunResult(name, seed, window, a)
	r.Failed += failedB
	r.Attempted += queries
	nA := float64(max(len(a.samples), 1))
	hits, misses := plans1.Hits-plans0.Hits, plans1.Misses-plans0.Misses
	r.PerLayer = metrics{
		"core.query_us":              {us(qMed), "us"},
		"core.self_us":               {us(medianOf(qSelf)), "us"},
		"core.plan_cache_hit_ratio":  {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"llm.base_us_per_query":      {us(sum(qCovered)) / float64(max(len(qDurs), 1)), "us"},
		"llm.billed_calls_per_query": {float64(a.stats.Billed.Calls) / nA, "count"},
		"llm.live_calls_per_query":   {float64(a.stats.Live.Calls) / nA, "count"},
		"llm.memo_hit_ratio":         {a.memoHitRatio(), "ratio"},
		"serve.self_us":              {us(reqMed - qMed), "us"},
		"serve.resp_bytes_per_query": {float64(a.written) / nA, "B"},
		"trace.overhead_pct":         {100 * (1 - a.qps()/refQPS), "%"},
	}
	if err := layerRows(b, tmp, r.PerLayer); err != nil {
		return nil, err
	}
	return r, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
