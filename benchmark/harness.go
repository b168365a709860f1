package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"llmsql/internal/core"
	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/serve"
	"llmsql/internal/world"
)

// paperWorld is the paper-scale world of internal/bench, generated from that
// package's default seed. The data set and the model's identity are the same
// on every run, as a database benchmark's are: -seed drives what is asked of
// them (parameter values, entity choice, statement order), so that a metric
// differs between two seeds by the requests, not by the size of the tables.
var paperWorld = world.Config{Seed: 2024, Countries: 180, Movies: 400, Laureates: 250, Companies: 300}

// memoModel remembers every distinct request the record pass sent to the
// synthetic model, in first-seen order. It is the source of the captured
// requests the per-layer rows replay, and — once warm — the "instant base"
// those rows run over: a map lookup keyed on the request itself, with no
// fingerprint hashing.
type memoModel struct {
	inner llm.Model

	mu    sync.RWMutex
	memo  map[llm.CompletionRequest]llm.CompletionResponse
	order []llm.CompletionRequest
}

func newMemoModel(inner llm.Model) *memoModel {
	return &memoModel{inner: inner, memo: make(map[llm.CompletionRequest]llm.CompletionResponse)}
}

func (m *memoModel) Name() string { return m.inner.Name() }

func (m *memoModel) Complete(req llm.CompletionRequest) (llm.CompletionResponse, error) {
	m.mu.RLock()
	resp, ok := m.memo[req]
	m.mu.RUnlock()
	if ok {
		return resp, nil
	}
	resp, err := m.inner.Complete(req)
	if err != nil {
		return resp, err
	}
	m.mu.Lock()
	if _, dup := m.memo[req]; !dup {
		m.memo[req] = resp
		m.order = append(m.order, req)
	}
	m.mu.Unlock()
	return resp, nil
}

// digestOf hashes a result's SQLLiteral-rendered rows.
func digestOf(res *exec.Result) digest {
	h := fnv.New64a()
	for _, row := range res.Rows {
		for _, v := range row {
			h.Write([]byte(v.SQLLiteral()))
			h.Write([]byte{','})
		}
		h.Write([]byte{'\n'})
	}
	return digest{rows: len(res.Rows), hash: h.Sum64()}
}

// runOnEngine executes one op directly on an engine (record pass, traced
// pass B) and returns its digest.
func runOnEngine(eng *core.Engine, o *op) (digest, error) {
	if !o.isQuery() {
		return digest{}, eng.Exec(o.req.SQL)
	}
	qr, err := eng.Query(o.req.SQL, o.req.Args...)
	if err != nil {
		return digest{}, err
	}
	return digestOf(qr.Result), nil
}

// execInit runs a workload's untimed init statements on an engine.
func execInit(eng *core.Engine, init []string) error {
	for _, s := range init {
		if err := eng.Exec(s); err != nil {
			return fmt.Errorf("init %q: %w", s, err)
		}
	}
	return nil
}

// lap runs a whole cycle once on an engine. With learn it stores each op's
// digest; otherwise it checks the op against the stored one.
func lap(eng *core.Engine, ops []op, learn bool) error {
	for i := range ops {
		o := &ops[i]
		d, err := runOnEngine(eng, o)
		if err != nil {
			return fmt.Errorf("%s: %w", o.req.SQL, err)
		}
		if learn {
			o.digest = d
		} else if d != o.digest {
			return fmt.Errorf("%s: digest %v, recorded %v", o.req.SQL, d, o.digest)
		}
	}
	return nil
}

// record runs each connection's cycle on a solo engine over
// trace.Record(model), filling in the per-op digests. The cycle runs twice:
// the second lap captures any prompt only the steady state issues (learned
// cardinalities can move StrategyAuto's choice) and proves the digests are
// stable, which the measured loop relies on.
func record(wl *workload, w *world.World, model llm.Model, tr *llm.Trace) error {
	for c := range wl.ops {
		cfg := wl.cfg
		cfg.RecordTrace = tr
		eng, err := core.Open(model, cfg)
		if err != nil {
			return err
		}
		for _, name := range w.DomainNames() {
			eng.RegisterWorldDomain(w.Domain(name))
		}
		if err := execInit(eng, wl.init); err != nil {
			return err
		}
		if err := lap(eng, wl.ops[c], true); err != nil {
			return fmt.Errorf("record: %w", err)
		}
		if err := lap(eng, wl.ops[c], false); err != nil {
			return fmt.Errorf("record lap 2 (workload is not repeatable): %w", err)
		}
		if err := eng.Close(); err != nil {
			return err
		}
	}
	return nil
}

// countingListener counts the bytes the server writes, for
// serve.resp_bytes_per_query. Used on traced runs only.
type countingListener struct {
	net.Listener
	written *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, written: l.written}, nil
}

type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// bed is one running test bed: a real serve.Server on a unix socket over a
// core.EngineGroup whose base model replays the recorded trace, plus the
// connected, initialised clients.
type bed struct {
	wl      *workload
	world   *world.World
	memo    *memoModel // captured requests / instant base for per-layer rows
	trace   *llm.Trace
	group   *core.EngineGroup
	srv     *serve.Server
	served  chan error
	sock    string
	clients [connections]*serve.Client
	cursor  [connections]int
	written atomic.Int64 // server bytes out (traced beds)
}

var bedSeq atomic.Int64

// setup builds a bed. rec, when non-nil, makes it a traced bed: the replay
// model is wrapped in the llm.base span shim and server writes are counted.
// Everything here is what setup_s times.
func setup(name string, seed int64, size world.Config, tmp string, rec *recorder) (*bed, error) {
	w := world.Generate(size)
	synth := llm.NewSynthLM(w, llm.ProfileMedium, size.Seed)
	wl, err := buildWorkload(name, w, seed)
	if err != nil {
		return nil, err
	}
	b := &bed{wl: wl, world: w, memo: newMemoModel(synth), trace: llm.NewTrace()}
	if err := record(wl, w, b.memo, b.trace); err != nil {
		return nil, err
	}

	// The timed backend is a map lookup; a request outside the trace is an
	// error the client sees as ok=false, i.e. a counted failure.
	base := b.trace.Replay(synth.Name())
	if rec != nil {
		base = &spanModel{inner: base, rec: rec}
	}
	if b.group, err = core.NewEngineGroup(base, wl.cfg); err != nil {
		return nil, err
	}
	for _, dn := range w.DomainNames() {
		b.group.RegisterWorldDomain(w.Domain(dn))
	}
	b.srv = serve.NewServer(serve.Config{Group: b.group})
	b.sock = filepath.Join(tmp, fmt.Sprintf("b%d.sock", bedSeq.Add(1)))
	ln, err := net.Listen("unix", b.sock)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if rec != nil {
		ln = countingListener{Listener: ln, written: &b.written}
	}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()

	for c := range b.clients {
		if err := b.connect(c); err != nil {
			b.close()
			return nil, fmt.Errorf("connection %d: %w", c, err)
		}
	}
	return b, nil
}

// connect dials one client and runs its untimed per-connection init: hello,
// the init statements, then the whole cycle once with every digest checked.
func (b *bed) connect(c int) error {
	cl, err := serve.Dial("unix:" + b.sock)
	if err != nil {
		return err
	}
	b.clients[c] = cl
	resp, err := cl.Hello("bench")
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("hello: %s", resp.Error)
	}
	for _, s := range b.wl.init {
		resp, err := cl.Exec(s)
		if err != nil {
			return err
		}
		if !resp.OK {
			return fmt.Errorf("init %q: %s", s, resp.Error)
		}
	}
	for i := range b.wl.ops[c] {
		o := &b.wl.ops[c][i]
		resp, err := cl.Do(o.req)
		if err := check(o, resp, err); err != nil {
			return err
		}
	}
	return nil
}

// close stops the server and waits for it; safe on a partly built bed.
func (b *bed) close() error {
	for _, cl := range b.clients {
		if cl != nil {
			cl.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if serr := <-b.served; serr != nil && err == nil {
		err = serr
	}
	if cerr := b.group.Close(); cerr != nil && err == nil {
		err = cerr
	}
	os.Remove(b.sock)
	return err
}

// check verifies one response against the op's recorded digest.
func check(o *op, resp *serve.Response, err error) error {
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%s: %s", o.req.SQL, resp.Error)
	}
	if !o.isQuery() {
		return nil
	}
	res, err := serve.DecodeRows(resp.Columns, resp.Types, resp.Rows)
	if err != nil {
		return err
	}
	if d := digestOf(res); d != o.digest {
		return fmt.Errorf("%s: digest %v, recorded %v", o.req.SQL, d, o.digest)
	}
	return nil
}

// sample is one attempted request: when its response arrived (since the
// window's start), how long Client.Do took, and whether it checked out.
type sample struct {
	done, lat time.Duration
	ok        bool
}

// phase is what one closed-loop window observed.
type phase struct {
	window     time.Duration // the requested length
	elapsed    time.Duration // until the last response
	samples    []sample      // every connection's, unordered
	failed     int
	firstErr   error
	allocBytes uint64
	stats      core.GroupStats // delta over the window
	written    int64
}

func (p *phase) ok() int { return len(p.samples) - p.failed }

// qps is OK responses per second over the whole window.
func (p *phase) qps() float64 { return float64(p.ok()) / p.elapsed.Seconds() }

// steady splits the window into n equal buckets by response time, applies
// stat to each bucket's samples and returns the median of the n values. One
// interfered-with stretch of a run (this box sees second-long stalls) moves a
// whole-window figure; it does not move the median bucket.
func (p *phase) steady(n int, stat func(bucket []sample, length time.Duration) float64) float64 {
	n = max(n, 1)
	length := p.window / time.Duration(n)
	buckets := make([][]sample, n)
	for _, s := range p.samples {
		if i := int(s.done / length); i < n { // the last in-flight request may land past the window
			buckets[i] = append(buckets[i], s)
		}
	}
	vals := make([]float64, n)
	for i, b := range buckets {
		vals[i] = stat(b, length)
	}
	_, med, _ := quartiles(vals)
	return med
}

func bucketQPS(b []sample, length time.Duration) float64 {
	ok := 0
	for _, s := range b {
		if s.ok {
			ok++
		}
	}
	return float64(ok) / length.Seconds()
}

// bucketQuantile is the q-quantile of a bucket's latencies, in ms.
func bucketQuantile(q float64) func([]sample, time.Duration) float64 {
	return func(b []sample, _ time.Duration) float64 {
		lat := make([]time.Duration, len(b))
		for i, s := range b {
			lat[i] = s.lat
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return ms(quantile(lat, q))
	}
}

// run drives the closed loop for d: one goroutine per connection, each
// sending its next request only after the previous response. Latency is
// timed around Client.Do only; the digest check runs after the stop
// timestamp. rec, when non-nil, records a serve.request span per request.
// Cycle positions persist across calls, so warm-up and measurement are one
// continuous stream with a barrier (and exact counter snapshots) between.
func (b *bed) run(d time.Duration, rec *recorder) *phase {
	var per [connections]struct {
		samples []sample
		err     error // the first failure
	}
	before := b.group.Stats()
	written := b.written.Load()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range b.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p, cl, ops := &per[c], b.clients[c], b.wl.ops[c]
			p.samples = make([]sample, 0, 1<<16)
			for time.Now().Before(deadline) {
				o := &ops[b.cursor[c]%len(ops)]
				b.cursor[c]++
				t0 := time.Now()
				resp, err := cl.Do(o.req)
				t1 := time.Now()
				if rec != nil {
					rec.add("serve.request", 0, t0, t1)
				}
				err = check(o, resp, err)
				p.samples = append(p.samples, sample{done: t1.Sub(start), lat: t1.Sub(t0), ok: err == nil})
				if err != nil && p.err == nil {
					p.err = err
				}
			}
		}(c)
	}
	wg.Wait()
	out := &phase{window: d, elapsed: time.Since(start)}
	runtime.ReadMemStats(&ms1)
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.written = b.written.Load() - written
	after := b.group.Stats()
	out.stats.Billed = after.Billed.Sub(before.Billed)
	out.stats.Live = after.Live.Sub(before.Live)
	out.stats.Coalescer = after.Coalescer
	out.stats.Coalescer.LiveCalls -= before.Coalescer.LiveCalls
	out.stats.Coalescer.FlightHits -= before.Coalescer.FlightHits
	out.stats.Coalescer.MemoHits -= before.Coalescer.MemoHits
	for c := range per {
		out.samples = append(out.samples, per[c].samples...)
		if out.firstErr == nil {
			out.firstErr = per[c].err
		}
	}
	for _, s := range out.samples {
		if !s.ok {
			out.failed++
		}
	}
	return out
}

// memoHitRatio is the share of coalescer requests answered without an
// inner call over the window.
func (p *phase) memoHitRatio() float64 {
	c := p.stats.Coalescer
	total := c.LiveCalls + c.Hits()
	if total == 0 {
		return 0
	}
	return float64(c.Hits()) / float64(total)
}

// validate is the workload-validity check (not a metric): fanout_scan is
// only the memo-thrashing path it claims to be while the memo keeps missing.
func (b *bed) validate(p *phase) error {
	if b.wl.name == "fanout_scan" {
		if r := p.memoHitRatio(); r >= 0.02 {
			return fmt.Errorf("fanout_scan: coalescer hit ratio %.4f >= 0.02: the scans no longer thrash the memo", r)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile (nearest rank) of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// medianOf sorts a copy of d and returns its median.
func medianOf(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}

// minTailSamples is the sample count below which p99 has fewer than ten
// samples beyond it; p95 is reported under the same name instead.
const minTailSamples = 1000

// measure is the untraced run: setup (five times, median reported as
// setup_s) -> warm-up (discarded) -> GC -> measured window. qps and p50_ms
// are medians over one-second buckets of the window, p99_ms over at most five
// buckets of at least minTailSamples samples each.
func measure(name string, seed int64, size world.Config, tmp string, warm, window time.Duration) (*runResult, error) {
	const setups = 5
	var b *bed
	times := make([]time.Duration, 0, setups)
	for i := 0; i < setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if b, err = setup(name, seed, size, tmp, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0))
	}
	defer b.close()
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	b.run(warm, nil)
	runtime.GC()
	p := b.run(window, nil)
	if err := b.validate(p); err != nil {
		return nil, err
	}

	r := newRunResult(name, seed, window, p)
	n := len(p.samples)
	tail := 0.99
	if n < minTailSamples {
		tail = 0.95
		r.Note = fmt.Sprintf("p99_ms is the p95: %d samples < %d", n, minTailSamples)
	}
	seconds := int(window / time.Second)
	r.EndToEnd = metrics{
		"qps":                {p.steady(seconds, bucketQPS), "1/s"},
		"p50_ms":             {p.steady(seconds, bucketQuantile(0.5)), "ms"},
		"p99_ms":             {p.steady(min(5, n/minTailSamples), bucketQuantile(tail)), "ms"},
		"alloc_kb_per_query": {float64(p.allocBytes) / 1024 / float64(max(n, 1)), "KiB"},
		"error_rate":         {float64(p.failed) / float64(max(n, 1)), "ratio"},
		"setup_s":            {times[setups/2].Seconds(), "s"},
	}
	return r, nil
}

// newRunResult fills the fields common to traced and untraced runs.
func newRunResult(name string, seed int64, window time.Duration, p *phase) *runResult {
	r := &runResult{
		Workload:  name,
		Seed:      seed,
		Seconds:   window.Seconds(),
		Samples:   len(p.samples),
		Attempted: len(p.samples),
		Failed:    p.failed,
	}
	if p.firstErr != nil {
		r.FirstError = p.firstErr.Error()
	}
	return r
}

// tempDir makes the run's scratch directory (socket, disk-cache rows)
// inside the working directory: the benchmark writes nowhere else.
func tempDir() (string, func(), error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
