package llm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"llmsql/internal/lru"
)

// blockModel lets a test hold inner calls open so concurrent callers pile up
// on the single-flight layer.
type blockModel struct {
	mu      sync.Mutex
	calls   int
	release chan struct{} // when non-nil, Complete blocks until closed
	err     error
}

func (b *blockModel) Name() string { return "block" }

func (b *blockModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	b.mu.Lock()
	b.calls++
	release := b.release
	err := b.err
	b.mu.Unlock()
	if release != nil {
		<-release
	}
	if err != nil {
		return CompletionResponse{}, err
	}
	return CompletionResponse{
		Text:             "ans:" + req.Prompt,
		PromptTokens:     len(req.Prompt),
		CompletionTokens: 4,
	}, nil
}

func TestCoalescerFlightHits(t *testing.T) {
	inner := &blockModel{release: make(chan struct{})}
	c := NewCoalescer(inner)
	const K = 16
	results := make([]CompletionResponse, K)
	var wg sync.WaitGroup
	started := make(chan struct{}, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			resp, err := c.Complete(CompletionRequest{Prompt: "same"})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = resp
		}(i)
	}
	// Wait until every goroutine has at least launched, then let the single
	// leader through. (Followers may or may not be blocked yet; late ones
	// hit the memo instead, which is equally coalesced.)
	for i := 0; i < K; i++ {
		<-started
	}
	close(inner.release)
	wg.Wait()

	if inner.calls != 1 {
		t.Fatalf("inner calls = %d, want exactly 1", inner.calls)
	}
	coalesced := 0
	for i, r := range results {
		if r.Text != "ans:same" || r.PromptTokens != 4 || r.CompletionTokens != 4 {
			t.Fatalf("result %d differs: %+v", i, r)
		}
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced != K-1 {
		t.Fatalf("coalesced = %d, want %d", coalesced, K-1)
	}
	s := c.Stats()
	if s.LiveCalls != 1 || s.Hits() != K-1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestCoalescerMemoServesLaterCallers(t *testing.T) {
	inner := &blockModel{}
	c := NewCoalescer(inner)
	first, err := c.Complete(CompletionRequest{Prompt: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if first.Coalesced {
		t.Fatal("leader must not be marked coalesced")
	}
	second, err := c.Complete(CompletionRequest{Prompt: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Coalesced {
		t.Fatal("memo hit must be marked coalesced")
	}
	// Everything but Coalesced is byte-identical to the leader's response.
	second.Coalesced = false
	if second != first {
		t.Fatalf("memo copy differs: %+v vs %+v", second, first)
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d", inner.calls)
	}
	s := c.Stats()
	if s.LiveCalls != 1 || s.MemoHits != 1 || s.FlightHits != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestCoalescerPreservesCachedFlags(t *testing.T) {
	// A response that came out of a cache below the coalescer keeps its
	// provenance on follower copies, so billing above stays solo-identical.
	inner := &blockModel{}
	cache := NewCache(inner)
	c := NewCoalescer(cache)
	if _, err := cache.Complete(CompletionRequest{Prompt: "warm"}); err != nil {
		t.Fatal(err)
	}
	first, err := c.Complete(CompletionRequest{Prompt: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Cached() {
		t.Fatalf("expected cached response, got %+v", first)
	}
	second, err := c.Complete(CompletionRequest{Prompt: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached() || !second.Coalesced {
		t.Fatalf("follower must stay cached and add Coalesced: %+v", second)
	}
}

func TestCoalescerDistinctPromptsDoNotCoalesce(t *testing.T) {
	inner := &blockModel{}
	c := NewCoalescer(inner)
	for i := 0; i < 5; i++ {
		resp, err := c.Complete(CompletionRequest{Prompt: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Coalesced {
			t.Fatalf("distinct prompt %d coalesced", i)
		}
	}
	// Distinct decode params split fingerprints too.
	if resp, err := c.Complete(CompletionRequest{Prompt: "p0", Seed: 7}); err != nil || resp.Coalesced {
		t.Fatalf("distinct seed must not coalesce: %+v err=%v", resp, err)
	}
	if inner.calls != 6 {
		t.Fatalf("inner calls = %d", inner.calls)
	}
}

func TestCoalescerMemoBoundAndEviction(t *testing.T) {
	inner := &blockModel{}
	c := NewCoalescerSized(inner, 2)
	ask := func(p string) {
		t.Helper()
		if _, err := c.Complete(CompletionRequest{Prompt: p}); err != nil {
			t.Fatal(err)
		}
	}
	ask("a")
	ask("b")
	ask("a") // refresh a: b is LRU
	ask("c") // evicts b
	ask("b") // live again
	s := c.Stats()
	if s.Size != 2 || s.Capacity != 2 || s.Evictions != 2 {
		t.Fatalf("stats: %+v", s)
	}
	if s.LiveCalls != 4 || s.MemoHits != 1 {
		t.Fatalf("stats: %+v", s)
	}
	checkIdle(t, c)
}

func TestCoalescerMemoDisabled(t *testing.T) {
	inner := &blockModel{}
	c := NewCoalescerSized(inner, -1)
	for i := 0; i < 3; i++ {
		if _, err := c.Complete(CompletionRequest{Prompt: "p"}); err != nil {
			t.Fatal(err)
		}
	}
	if inner.calls != 3 {
		t.Fatalf("memo disabled must not retain results: %d inner calls", inner.calls)
	}
	if s := c.Stats(); s.Capacity != 0 || s.MemoHits != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestCoalescerErrorsPropagateAndAreNotMemoized(t *testing.T) {
	boom := errors.New("boom")
	inner := &blockModel{err: boom}
	c := NewCoalescer(inner)
	if _, err := c.Complete(CompletionRequest{Prompt: "p"}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	inner.mu.Lock()
	inner.err = nil
	inner.mu.Unlock()
	resp, err := c.Complete(CompletionRequest{Prompt: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Coalesced {
		t.Fatal("failed call must not be memoized")
	}
	if s := c.Stats(); s.Errors != 1 || s.LiveCalls != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

// gateModel blocks every Complete until released, so a test can hold a
// coalescer leader's call open while followers pile onto its flight.
type gateModel struct {
	inner   Model
	release chan struct{}
}

func (g *gateModel) Name() string { return g.inner.Name() }

func (g *gateModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	<-g.release
	return g.inner.Complete(req)
}

// TestCoalescerPromotionUnderChaos drives the follower-promotion path
// with the real fault injector: a chaos profile chosen so the shared
// request faults on its first attempt and succeeds on the second. The
// leader absorbs the injected error alone, exactly one follower is
// promoted to a fresh leader, and every caller that did not lead a failed
// call gets the answer — one backend failure never fans out to a cohort.
func TestCoalescerPromotionUnderChaos(t *testing.T) {
	profile := ChaosProfile{Seed: 1234, TransientRate: 0.5}
	// Find a prompt whose fault stream is fail-then-succeed under this
	// profile (the draw is a pure function of seed, fingerprint, attempt).
	prompt := ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("probe %d", i)
		fp := Fingerprint("echo", CompletionRequest{Prompt: cand})
		if chaosU(profile.Seed, fp, 0) < 0.5 && chaosU(profile.Seed, fp, 1) >= 0.5 {
			prompt = cand
			break
		}
	}
	if prompt == "" {
		t.Fatal("no fail-then-succeed prompt in 1000 candidates")
	}

	chaos := NewChaos(&echoModel{}, profile)
	gate := &gateModel{inner: chaos, release: make(chan struct{})}
	c := NewCoalescer(gate)

	const K = 8
	var wg sync.WaitGroup
	errc := make(chan error, K)
	respc := make(chan CompletionResponse, K)
	started := make(chan struct{}, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			resp, err := c.Complete(CompletionRequest{Prompt: prompt})
			if err != nil {
				errc <- err
			} else {
				respc <- resp
			}
		}()
	}
	for i := 0; i < K; i++ {
		<-started
	}
	// Wait until one caller has become leader and the rest have joined its
	// flight, then open the gate: the leader's attempt draws the injected
	// fault, the followers re-enter, and one of them is promoted.
	for {
		c.mu.Lock()
		waiting := c.stats.FlightHits
		c.mu.Unlock()
		if waiting == K-1 {
			break
		}
	}
	close(gate.release)
	wg.Wait()
	close(errc)
	close(respc)

	var errs []error
	for err := range errc {
		errs = append(errs, err)
	}
	if len(errs) != 1 {
		t.Fatalf("exactly the failed call's leader sees the error, got %d: %v", len(errs), errs)
	}
	if !errors.Is(errs[0], Retryable) {
		t.Fatalf("leader's error lost its class: %v", errs[0])
	}
	for resp := range respc {
		if !strings.HasPrefix(resp.Text, "echo:") {
			t.Fatalf("follower got a wrong answer: %+v", resp)
		}
	}
	s := c.Stats()
	if s.LiveCalls != 2 {
		t.Fatalf("live calls: %+v (want failed leader + promoted leader)", s)
	}
	if s.Promotions != 1 {
		t.Fatalf("promotions: %+v", s)
	}
	if s.Errors != 1 {
		t.Fatalf("errors: %+v", s)
	}
	if cs := chaos.Stats(); cs.Transient != 1 || cs.Calls != 2 {
		t.Fatalf("chaos counters: %+v", cs)
	}
}

// enterModel announces every call on entered and then blocks until release
// is closed, so a test can tell "a second inner call started" from "the
// second caller joined the first one's flight".
type enterModel struct {
	entered chan struct{}
	release chan struct{}
}

func (m *enterModel) Name() string { return "enter" }

func (m *enterModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	m.entered <- struct{}{}
	<-m.release
	return CompletionResponse{Text: "ans:" + req.Prompt}, nil
}

// TestCoalescerKeyAgreesWithFingerprint pins the equivalence the value key
// rests on: for a fixed inner model, two requests share a flight and a memo
// entry exactly when their fingerprints are equal. Each variant differs from
// the base in exactly one field (or in none).
func TestCoalescerKeyAgreesWithFingerprint(t *testing.T) {
	base := CompletionRequest{Prompt: "p", MaxTokens: 16, Temperature: 0.7, Seed: 3}
	reqs := []struct {
		name string
		req  CompletionRequest
	}{
		{"base", base},
		{"equal copy", CompletionRequest{Prompt: "p", MaxTokens: 16, Temperature: 0.7, Seed: 3}},
		{"prompt", CompletionRequest{Prompt: "q", MaxTokens: 16, Temperature: 0.7, Seed: 3}},
		{"max tokens", CompletionRequest{Prompt: "p", MaxTokens: 17, Temperature: 0.7, Seed: 3}},
		{"temperature", CompletionRequest{Prompt: "p", MaxTokens: 16, Temperature: 0.7000000000000001, Seed: 3}},
		{"temperature zero", CompletionRequest{Prompt: "p", MaxTokens: 16, Seed: 3}},
		{"temperature minus zero", CompletionRequest{Prompt: "p", MaxTokens: 16, Temperature: math.Copysign(0, -1), Seed: 3}},
		{"temperature NaN", CompletionRequest{Prompt: "p", MaxTokens: 16, Temperature: math.NaN(), Seed: 3}},
		{"temperature NaN, other payload", CompletionRequest{Prompt: "p", MaxTokens: 16, Temperature: math.Float64frombits(0x7ff8000000000123), Seed: 3}},
		{"seed", CompletionRequest{Prompt: "p", MaxTokens: 16, Temperature: 0.7, Seed: 4}},
	}
	for _, a := range reqs {
		for _, b := range reqs {
			want := Fingerprint("enter", a.req) == Fingerprint("enter", b.req)
			if got := keyOf(a.req) == keyOf(b.req); got != want {
				t.Errorf("%s vs %s: keys equal = %v, fingerprints equal = %v", a.name, b.name, got, want)
			}

			// Memo: b after a completed.
			memo := NewCoalescer(&echoModel{})
			if _, err := memo.Complete(a.req); err != nil {
				t.Fatal(err)
			}
			if resp, err := memo.Complete(b.req); err != nil || resp.Coalesced != want {
				t.Errorf("%s then %s: memo hit = %v, want %v (err=%v)", a.name, b.name, resp.Coalesced, want, err)
			}

			if got := sharesFlight(t, a.req, b.req); got != want {
				t.Errorf("%s during %s: joined the flight = %v, want %v", b.name, a.name, got, want)
			}
		}
	}
}

// sharesFlight reports whether b, issued while a is still inside its inner
// call, joins a's flight rather than leading a call of its own. The memo is
// off, so a flight is the only way to share.
func sharesFlight(t *testing.T, a, b CompletionRequest) bool {
	t.Helper()
	inner := &enterModel{entered: make(chan struct{}, 2), release: make(chan struct{})}
	c := NewCoalescerSized(inner, -1)
	var wg sync.WaitGroup
	call := func(req CompletionRequest) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Complete(req); err != nil {
				t.Error(err)
			}
		}()
	}
	call(a)
	<-inner.entered // a's leader is inside the inner model
	call(b)
	joined := false
	for waiting := true; waiting; {
		select {
		case <-inner.entered: // b led a call of its own
			waiting = false
		default:
			joined = c.Stats().FlightHits == 1
			waiting = !joined
			runtime.Gosched()
		}
	}
	close(inner.release)
	wg.Wait()
	return joined
}

// fixedModel answers every request with the same response and does nothing
// else, so a benchmark or allocation count over it sees only the wrapper.
type fixedModel struct{ resp CompletionResponse }

func (fixedModel) Name() string { return "fixed" }

func (m fixedModel) Complete(CompletionRequest) (CompletionResponse, error) { return m.resp, nil }

// TestCoalescerMissAllocs guards the leader's path: a miss that no
// follower joins allocates nothing of the coalescer's own (the flight
// followers wait on is made only when one joins), here with every call
// evicting a memo entry over an inner model that allocates nothing.
func TestCoalescerMissAllocs(t *testing.T) {
	const distinct = 64
	reqs := make([]CompletionRequest, distinct)
	for i := range reqs {
		reqs[i] = attrRequest
		reqs[i].Prompt += fmt.Sprint(i)
	}
	c := NewCoalescerSized(fixedModel{CompletionResponse{Text: "Paris"}}, distinct/2)
	next := 0
	miss := func() {
		if _, err := c.Complete(reqs[next%distinct]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range reqs {
		miss() // fill the memo, so every measured call evicts
	}
	if n := testing.AllocsPerRun(200, miss); n != 0 {
		t.Fatalf("a coalescer miss allocates %v times, want 0", n)
	}
	if s := c.Stats(); s.MemoHits != 0 || s.FlightHits != 0 {
		t.Fatalf("the calls must only miss: %+v", s)
	}
}

// stagedModel holds each inner call open until the test releases it, and
// fails the first: a coalescer leader that fails with a cohort waiting.
type stagedModel struct {
	entered chan struct{}
	release [2]chan struct{}
	calls   atomic.Int32
}

func (m *stagedModel) Name() string { return "staged" }

func (m *stagedModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	call := m.calls.Add(1) - 1
	m.entered <- struct{}{}
	<-m.release[min(call, 1)]
	if call == 0 {
		return CompletionResponse{}, errors.New("boom")
	}
	return CompletionResponse{Text: "ans:" + req.Prompt}, nil
}

// TestCoalescerFollowersOfFailedLeaderPromoted: N followers join a leader
// whose call fails. The leader alone sees the error; one follower is
// promoted to lead a fresh call and the other N-1 join that one, so both
// lazily made flights carry a cohort (run under -race, this exercises their
// handoff). Every follower gets the answer.
func TestCoalescerFollowersOfFailedLeaderPromoted(t *testing.T) {
	const N = 8
	inner := &stagedModel{entered: make(chan struct{}, 2), release: [2]chan struct{}{make(chan struct{}), make(chan struct{})}}
	c := NewCoalescer(inner)
	req := CompletionRequest{Prompt: "p"}
	waitHits := func(n int) {
		for c.Stats().FlightHits < n {
			runtime.Gosched()
		}
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Complete(req)
		leaderErr <- err
	}()
	<-inner.entered
	var wg sync.WaitGroup
	resps := make([]CompletionResponse, N)
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = c.Complete(req)
		}()
	}
	waitHits(N)
	close(inner.release[0])
	if err := <-leaderErr; err == nil {
		t.Fatal("the failed leader must see its error")
	}
	<-inner.entered // the promoted follower leads the second call
	waitHits(2*N - 1)
	close(inner.release[1])
	wg.Wait()

	for i := range resps {
		if errs[i] != nil || resps[i].Text != "ans:p" {
			t.Fatalf("follower %d: %+v, %v", i, resps[i], errs[i])
		}
	}
	if s := c.Stats(); s.LiveCalls != 2 || s.Errors != 1 || s.Promotions != 1 || s.FlightHits != 2*N-1 {
		t.Fatalf("stats: %+v", s)
	}
}

// checkIdle asserts what holds of a coalescer no call is inside: every
// table entry is done and linked into the recency ring exactly once, so no
// flight leaked, and the ring is within the bound. The ring and the table
// are maintained separately, so the walk checks the back links as it goes.
func checkIdle(t *testing.T, c *Coalescer) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := c.ring.next; e != &c.ring && n <= len(c.table); e = e.next {
		if e.next.prev != e || !e.done || c.table[e.key] != e {
			t.Fatalf("ring entry %q is not the table's done entry", e.key.prompt)
		}
		n++
	}
	if n != len(c.table) || n != c.size || c.size > c.capacity {
		t.Fatalf("table %d, ring %d, size %d, capacity %d", len(c.table), n, c.size, c.capacity)
	}
}

// refCoalescer is the two-structure coalescer the one table replaced: a
// map of the calls in flight beside an lru.Cache memo of completed
// responses. TestCoalescerMatchesTwoMapReference holds Coalescer to it.
type refCoalescer struct {
	inner    Model
	mu       sync.Mutex
	inflight map[requestKey]*flight
	memo     *lru.Cache[requestKey, CompletionResponse]
	stats    CoalescerStats
}

func newRefCoalescer(m Model, capacity int) *refCoalescer {
	if capacity == 0 {
		capacity = DefaultCoalescerMemo
	}
	return &refCoalescer{
		inner:    m,
		inflight: make(map[requestKey]*flight),
		memo:     lru.New[requestKey, CompletionResponse](max(capacity, 0)),
	}
}

func (c *refCoalescer) Complete(req CompletionRequest) (CompletionResponse, error) {
	key := keyOf(req)
	c.mu.Lock()
	joined := false
	for {
		if resp, ok := c.memo.Get(key); ok {
			c.stats.MemoHits++
			c.mu.Unlock()
			resp.Coalesced = true
			return resp, nil
		}
		fl, ok := c.inflight[key]
		if !ok {
			break
		}
		if fl == nil {
			fl = &flight{}
			fl.done.Add(1)
			c.inflight[key] = fl
		}
		c.stats.FlightHits++
		joined = true
		c.mu.Unlock()
		fl.done.Wait()
		if fl.err == nil {
			resp := fl.resp
			resp.Coalesced = true
			return resp, nil
		}
		c.mu.Lock()
	}
	if joined {
		c.stats.Promotions++
	}
	c.inflight[key] = nil
	c.stats.LiveCalls++
	c.mu.Unlock()

	resp, err := c.inner.Complete(req)

	c.mu.Lock()
	fl := c.inflight[key]
	delete(c.inflight, key)
	if err != nil {
		c.stats.Errors++
	} else if c.memo.Put(key, resp) {
		c.stats.Evictions++
	}
	c.mu.Unlock()
	if fl != nil {
		fl.resp, fl.err = resp, err
		fl.done.Done()
	}
	return resp, err
}

func (c *refCoalescer) Forget(req CompletionRequest) {
	c.mu.Lock()
	c.memo.Remove(keyOf(req))
	c.mu.Unlock()
}

func (c *refCoalescer) Stats() CoalescerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size, s.Capacity = c.memo.Len(), c.memo.Cap()
	return s
}

// numberedModel numbers its answers by call ("ans:<prompt>#<n>"), so a memo
// copy reads differently from a fresh call, and fails while fail is set.
type numberedModel struct {
	calls int
	fail  bool
}

func (m *numberedModel) Name() string { return "numbered" }

func (m *numberedModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	m.calls++
	if m.fail {
		return CompletionResponse{}, errors.New("boom")
	}
	return CompletionResponse{Text: fmt.Sprintf("ans:%s#%d", req.Prompt, m.calls), PromptTokens: len(req.Prompt)}, nil
}

// TestCoalescerMatchesTwoMapReference drives Coalescer and refCoalescer
// through the same seeded Complete and Forget calls over a dozen prompts,
// with seeded inner failures, at every memo shape (disabled, tiny, larger
// than the prompt set): after every step the two must have answered alike
// and agree on every counter, so eviction order, Forget and the error path
// are the parent algorithm's.
func TestCoalescerMatchesTwoMapReference(t *testing.T) {
	for _, capacity := range []int{-1, 1, 2, 3, 8} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			refInner, inner := &numberedModel{}, &numberedModel{}
			ref, c := newRefCoalescer(refInner, capacity), NewCoalescerSized(inner, capacity)
			for step := 0; step < 400; step++ {
				req := CompletionRequest{Prompt: fmt.Sprintf("p%d", rng.Intn(12))}
				if rng.Intn(5) == 0 {
					ref.Forget(req)
					c.Forget(req)
				} else {
					refInner.fail = rng.Intn(4) == 0
					inner.fail = refInner.fail
					want, wantErr := ref.Complete(req)
					got, err := c.Complete(req)
					if got != want || (err == nil) != (wantErr == nil) {
						t.Fatalf("capacity %d seed %d step %d: %+v, %v; reference %+v, %v", capacity, seed, step, got, err, want, wantErr)
					}
				}
				if got, want := c.Stats(), ref.Stats(); got != want {
					t.Fatalf("capacity %d seed %d step %d: stats %+v; reference %+v", capacity, seed, step, got, want)
				}
				checkIdle(t, c)
			}
		}
	}
}

// yieldingModel yields inside every call, so concurrent callers interleave
// around it, and fails every 5th call.
type yieldingModel struct{ calls, fails atomic.Int64 }

func (m *yieldingModel) Name() string { return "yielding" }

func (m *yieldingModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	n := m.calls.Add(1)
	runtime.Gosched()
	if n%5 == 0 {
		m.fails.Add(1)
		return CompletionResponse{}, errors.New("boom")
	}
	return CompletionResponse{Text: "ans:" + req.Prompt}, nil
}

// TestCoalescerConcurrentInvariants runs 8 callers over 16 prompts against
// a 4-entry memo while one of them also forgets prompts: entries join
// flights, fail, promote, evict and are recycled concurrently. Every answer
// must be its own prompt's (a recycled entry handed to the wrong caller
// would show here), every error a leader's own, and once idle the table,
// ring and Size agree and the counters match the inner model's.
func TestCoalescerConcurrentInvariants(t *testing.T) {
	const callers, calls, prompts = 8, 2000, 16
	reqs := make([]CompletionRequest, prompts)
	for i := range reqs {
		reqs[i] = CompletionRequest{Prompt: fmt.Sprintf("p%d", i)}
	}
	inner := &yieldingModel{}
	c := NewCoalescerSized(inner, 4)
	var wg sync.WaitGroup
	var callerErrs atomic.Int64
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < calls; i++ {
				req := reqs[rng.Intn(prompts)]
				resp, err := c.Complete(req)
				if err != nil {
					callerErrs.Add(1)
				} else if resp.Text != "ans:"+req.Prompt {
					t.Errorf("%q answered %q", req.Prompt, resp.Text)
					return
				}
				if g == 0 {
					c.Forget(reqs[rng.Intn(prompts)])
				}
			}
		}(g)
	}
	wg.Wait()

	checkIdle(t, c)
	s := c.Stats()
	if int64(s.LiveCalls) != inner.calls.Load() || int64(s.Errors) != inner.fails.Load() || callerErrs.Load() != inner.fails.Load() {
		t.Fatalf("stats %+v: inner %d calls, %d failed; callers saw %d errors", s, inner.calls.Load(), inner.fails.Load(), callerErrs.Load())
	}
	t.Logf("%+v", s)
}

// BenchmarkCoalescerMissEvict cycles twice as many distinct requests as the
// memo holds, so every call misses, leads a flight, inserts and evicts — the
// path every call of a key-then-attr fan-out larger than the memo takes.
func BenchmarkCoalescerMissEvict(b *testing.B) {
	const distinct = 1024
	reqs := make([]CompletionRequest, distinct)
	for i := range reqs {
		reqs[i] = attrRequest
		reqs[i].Prompt += fmt.Sprint(i)
	}
	c := NewCoalescerSized(fixedModel{CompletionResponse{Text: "Paris", PromptTokens: 60, CompletionTokens: 1}}, distinct/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Complete(reqs[i%distinct]); err != nil {
			b.Fatal(err)
		}
	}
	if s := c.Stats(); s.MemoHits != 0 {
		b.Fatalf("the benchmark must only miss: %+v", s)
	}
}
