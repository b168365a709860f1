package llm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// flakyModel fails its first failFirst calls with err, then answers like
// an echo model.
type flakyModel struct {
	mu        sync.Mutex
	calls     int
	failFirst int
	err       error
	latency   time.Duration // FaultLatency stamped on successful responses
}

func (f *flakyModel) Name() string { return "flaky" }

func (f *flakyModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if n <= f.failFirst {
		return CompletionResponse{}, f.err
	}
	return CompletionResponse{
		Text:             "ans:" + req.Prompt,
		PromptTokens:     len(req.Prompt),
		CompletionTokens: 4,
		Recovery:         Recovery{FaultLatency: f.latency},
	}, nil
}

func TestRetrierTransparentOnSuccess(t *testing.T) {
	inner := &flakyModel{}
	r := NewRetrier(inner, RetryPolicy{})
	resp, err := r.Complete(CompletionRequest{Prompt: "easy"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attempts != 1 || resp.FaultLatency != 0 || resp.HedgeLaunched {
		t.Fatalf("first-attempt success must be unmarked: %+v", resp)
	}
	if s := r.Stats(); s.Calls != 1 || s.Retries != 0 || s.Failures != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestRetrierRecoversTransientFault(t *testing.T) {
	inner := &flakyModel{failFirst: 2, err: fmt.Errorf("hiccup: %w", Retryable)}
	r := NewRetrier(inner, RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Millisecond, JitterFrac: -1, BreakerThreshold: -1})
	r.SetCost(CostModel{PerCallLatency: time.Second})
	resp, err := r.Complete(CompletionRequest{Prompt: "bumpy"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "ans:bumpy" {
		t.Fatalf("text: %q", resp.Text)
	}
	if resp.Attempts != 3 {
		t.Fatalf("attempts: %d", resp.Attempts)
	}
	// Two failed round trips at 1s plus backoffs of 100ms and 200ms.
	if want := 2*time.Second + 300*time.Millisecond; resp.FaultLatency != want {
		t.Fatalf("fault latency: %v, want %v", resp.FaultLatency, want)
	}
	if s := r.Stats(); s.Retries != 2 || s.Failures != 0 || s.BackoffWait != 300*time.Millisecond {
		t.Fatalf("stats: %+v", s)
	}
}

func TestRetrierExhaustsBudget(t *testing.T) {
	inner := &flakyModel{failFirst: 1 << 30, err: fmt.Errorf("down: %w", Retryable)}
	r := NewRetrier(inner, RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Millisecond, JitterFrac: -1, BreakerThreshold: -1})
	r.SetCost(CostModel{PerCallLatency: time.Second})
	_, err := r.Complete(CompletionRequest{Prompt: "doomed"})
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("want *RetryError, got %v", err)
	}
	if re.Attempts != 3 {
		t.Fatalf("attempts: %d", re.Attempts)
	}
	if want := 3*time.Second + 300*time.Millisecond; re.FaultLatency != want {
		t.Fatalf("fault latency: %v, want %v", re.FaultLatency, want)
	}
	if !errors.Is(err, Retryable) || !Degradable(err) {
		t.Fatalf("RetryError must expose the class sentinel: %v", err)
	}
	if inner.calls != 3 {
		t.Fatalf("inner calls: %d", inner.calls)
	}
	if s := r.Stats(); s.Failures != 1 || s.Retries != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestRetrierFatalPassesThrough(t *testing.T) {
	for _, err := range []error{
		fmt.Errorf("bad prompt: %w", Fatal),
		errors.New("unclassified bug"),
	} {
		inner := &flakyModel{failFirst: 1 << 30, err: err}
		r := NewRetrier(inner, RetryPolicy{})
		_, got := r.Complete(CompletionRequest{Prompt: "x"})
		if !errors.Is(got, err) {
			t.Fatalf("error rewritten: %v", got)
		}
		var re *RetryError
		if errors.As(got, &re) {
			t.Fatalf("fatal error wrapped in RetryError: %v", got)
		}
		if inner.calls != 1 {
			t.Fatalf("fatal error burned retries: %d calls", inner.calls)
		}
	}
}

func TestRetrierBackoff(t *testing.T) {
	r := NewRetrier(&echoModel{}, RetryPolicy{
		BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second,
		RateLimitFactor: 4, JitterFrac: -1,
	})
	for _, tc := range []struct {
		attempt     int
		rateLimited bool
		want        time.Duration
	}{
		{1, false, 100 * time.Millisecond},
		{2, false, 200 * time.Millisecond},
		{3, false, 400 * time.Millisecond},
		{5, false, time.Second},  // capped
		{60, false, time.Second}, // shift overflow guard
		{1, true, 400 * time.Millisecond},
		{5, true, 4 * time.Second}, // cap × factor
	} {
		if got := r.backoff("fp", tc.attempt, tc.rateLimited); got != tc.want {
			t.Fatalf("backoff(attempt=%d, rl=%v) = %v, want %v", tc.attempt, tc.rateLimited, got, tc.want)
		}
	}
}

func TestRetrierJitterDeterministicAndBounded(t *testing.T) {
	r := NewRetrier(&echoModel{}, RetryPolicy{BaseBackoff: time.Second, MaxBackoff: time.Hour, JitterFrac: 0.25})
	seen := map[time.Duration]bool{}
	for i := 0; i < 20; i++ {
		fp := fmt.Sprintf("request %d", i)
		d := r.backoff(fp, 1, false)
		if d != r.backoff(fp, 1, false) {
			t.Fatal("jitter is not deterministic")
		}
		if d < 750*time.Millisecond || d >= 1250*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [0.75s, 1.25s)", d)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter barely spreads: %d distinct values of 20", len(seen))
	}
}

func TestRetrierBreaker(t *testing.T) {
	inner := &flakyModel{failFirst: 1 << 30, err: fmt.Errorf("down: %w", Retryable)}
	r := NewRetrier(inner, RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, JitterFrac: -1, BreakerThreshold: 2, BreakerCooldown: 3})

	// Two exhausted calls trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := r.Complete(CompletionRequest{Prompt: "a"}); err == nil {
			t.Fatal("want failure")
		}
	}
	if s := r.Stats(); s.BreakerOpens != 1 {
		t.Fatalf("breaker did not open: %+v", s)
	}
	callsBefore := inner.calls

	// While open, the cooldown's worth of calls fail fast without touching
	// the backend, classified retryable (degradable) with zero attempts.
	for i := 0; i < 3; i++ {
		_, err := r.Complete(CompletionRequest{Prompt: "b"})
		var re *RetryError
		if !errors.As(err, &re) || re.Attempts != 0 {
			t.Fatalf("fast-fail shape: %v", err)
		}
		if !Degradable(err) {
			t.Fatalf("fast-fail must be degradable: %v", err)
		}
	}
	if inner.calls != callsBefore {
		t.Fatal("open breaker let calls through")
	}
	if s := r.Stats(); s.BreakerFastFails != 3 {
		t.Fatalf("fast fails: %+v", s)
	}

	// Cooldown spent: the next call probes (half-open). It fails, so the
	// breaker reopens immediately.
	if _, err := r.Complete(CompletionRequest{Prompt: "c"}); err == nil {
		t.Fatal("probe should have failed")
	}
	if inner.calls == callsBefore {
		t.Fatal("half-open probe never reached the backend")
	}
	if s := r.Stats(); s.BreakerOpens != 2 {
		t.Fatalf("failed probe must reopen: %+v", s)
	}

	// Next cooldown, then a healthy backend closes the breaker via the
	// probe and traffic flows again.
	for i := 0; i < 3; i++ {
		r.Complete(CompletionRequest{Prompt: "d"})
	}
	inner.mu.Lock()
	inner.failFirst = 0
	inner.mu.Unlock()
	if _, err := r.Complete(CompletionRequest{Prompt: "e"}); err != nil {
		t.Fatalf("probe against healthy backend: %v", err)
	}
	if _, err := r.Complete(CompletionRequest{Prompt: "f"}); err != nil {
		t.Fatalf("closed breaker: %v", err)
	}
}

func TestRetrierHedgeWins(t *testing.T) {
	// The primary response carries a 5s latency spike; the duplicate is
	// clean, so launching it HedgeAfter=1s in costs ~1.3s total and wins.
	inner := &spikeOnceModel{spike: 5 * time.Second}
	r := NewRetrier(inner, RetryPolicy{HedgeAfter: time.Second, BreakerThreshold: -1})
	resp, err := r.Complete(CompletionRequest{Prompt: "spiky"})
	if err != nil {
		t.Fatal(err)
	}
	inner.mu.Lock()
	calls := inner.calls
	inner.mu.Unlock()
	if calls != 2 {
		t.Fatalf("hedge must issue a duplicate: %d calls", calls)
	}
	if !resp.HedgeLaunched || !resp.HedgeWon {
		t.Fatalf("hedge flags: %+v", resp)
	}
	if resp.Text != "ans:spiky" {
		t.Fatalf("hedging changed the answer: %q", resp.Text)
	}
	if resp.WastedPromptTokens == 0 {
		t.Fatal("the losing primary's tokens must be billed as waste")
	}
	// The winner's fault latency is the hedge delay, not the 5s spike.
	if resp.FaultLatency != time.Second {
		t.Fatalf("winner fault latency: %v", resp.FaultLatency)
	}
	if resp.Attempts != 2 {
		t.Fatalf("attempts: %d", resp.Attempts)
	}
	if s := r.Stats(); s.HedgesLaunched != 1 || s.HedgesWon != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestRetrierHedgeLoses(t *testing.T) {
	// Every response is slow, so the duplicate (launched 1s later) cannot
	// beat the primary; the primary is kept and the duplicate is waste.
	inner := &flakyModel{latency: 5 * time.Second}
	r := NewRetrier(inner, RetryPolicy{HedgeAfter: time.Second, BreakerThreshold: -1})
	resp, err := r.Complete(CompletionRequest{Prompt: "always slow"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.HedgeLaunched || resp.HedgeWon {
		t.Fatalf("hedge flags: %+v", resp)
	}
	if resp.WastedPromptTokens == 0 {
		t.Fatal("the losing duplicate's tokens must be billed as waste")
	}
	if resp.FaultLatency != 5*time.Second {
		t.Fatalf("primary keeps its own latency: %v", resp.FaultLatency)
	}
	if s := r.Stats(); s.HedgesLaunched != 1 || s.HedgesWon != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// spikeOnceModel answers like an echo model with a latency spike on its
// first call only — the shape where a hedge duplicate pays off.
type spikeOnceModel struct {
	mu    sync.Mutex
	calls int
	spike time.Duration
}

func (s *spikeOnceModel) Name() string { return "spike-once" }

func (s *spikeOnceModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	s.mu.Lock()
	s.calls++
	n := s.calls
	s.mu.Unlock()
	resp := CompletionResponse{
		Text:             "ans:" + req.Prompt,
		PromptTokens:     len(req.Prompt),
		CompletionTokens: 4,
	}
	if n == 1 {
		resp.FaultLatency = s.spike
	}
	return resp, nil
}

func TestRetrierHedgeBelowThresholdDoesNothing(t *testing.T) {
	inner := &flakyModel{}
	r := NewRetrier(inner, RetryPolicy{HedgeAfter: time.Hour})
	resp, err := r.Complete(CompletionRequest{Prompt: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.HedgeLaunched || inner.calls != 1 {
		t.Fatalf("fast primary must not hedge: %+v, %d calls", resp, inner.calls)
	}
}

// TestRetrierOverChaosDeterministic is the end-to-end determinism check
// for the fault layer: the exact per-call outcome sequence (attempts,
// fault latency, text) of a Retrier over a Chaos is identical run to run.
func TestRetrierOverChaosDeterministic(t *testing.T) {
	run := func() string {
		chaos := NewChaos(&echoModel{}, ChaosProfile{Seed: 99, TransientRate: 0.3, RateLimitRate: 0.1, SpikeRate: 0.2, SpikeLatency: time.Second})
		r := NewRetrier(chaos, RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Millisecond, HedgeAfter: 800 * time.Millisecond})
		out := ""
		for i := 0; i < 60; i++ {
			resp, err := r.Complete(CompletionRequest{Prompt: fmt.Sprintf("q%d", i)})
			if err != nil {
				var re *RetryError
				if !errors.As(err, &re) {
					t.Fatalf("unexpected error shape: %v", err)
				}
				out += fmt.Sprintf("E(%d,%v) ", re.Attempts, re.FaultLatency)
				continue
			}
			out += fmt.Sprintf("S(%d,%v,%q) ", resp.Attempts, resp.FaultLatency, resp.Text[:4])
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fault-layer outcomes differ across runs:\n%s\n%s", a, b)
	}
}

// TestRetrierHealthyCallDoesNotHash: the fingerprint only seeds backoff
// jitter, so a call that succeeds first time must not compute one.
// Fingerprint allocates its result, a healthy pass allocates nothing, so the
// allocation count is the hash count.
func TestRetrierHealthyCallDoesNotHash(t *testing.T) {
	r := NewRetrier(fixedModel{CompletionResponse{Text: "Paris"}}, RetryPolicy{})
	if n := testing.AllocsPerRun(200, func() {
		if _, err := r.Complete(attrRequest); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("healthy Retrier.Complete allocated %v times: it is hashing", n)
	}
}
