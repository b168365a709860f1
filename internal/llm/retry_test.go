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

// jittered is the wait the Retrier charges for a backoff of nominal before
// retry number attempt of the request fingerprinted fp: nominal spread by
// ±25% jitter.
func jittered(fp string, attempt int, nominal time.Duration) time.Duration {
	return time.Duration(float64(nominal) * (0.75 + 0.5*backoffU(fp, attempt)))
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
	r := NewRetrier(inner, RetryPolicy{MaxAttempts: 4})
	r.SetCost(CostModel{PerCallLatency: time.Second})
	req := CompletionRequest{Prompt: "bumpy"}
	resp, err := r.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "ans:bumpy" {
		t.Fatalf("text: %q", resp.Text)
	}
	if resp.Attempts != 3 {
		t.Fatalf("attempts: %d", resp.Attempts)
	}
	// Two failed round trips at 1s plus jittered backoffs of 200ms and 400ms.
	fp := Fingerprint("flaky", req)
	wait := jittered(fp, 1, 200*time.Millisecond) + jittered(fp, 2, 400*time.Millisecond)
	if want := 2*time.Second + wait; resp.FaultLatency != want {
		t.Fatalf("fault latency: %v, want %v", resp.FaultLatency, want)
	}
	if s := r.Stats(); s.Retries != 2 || s.Failures != 0 || s.BackoffWait != wait {
		t.Fatalf("stats: %+v", s)
	}
}

func TestRetrierExhaustsBudget(t *testing.T) {
	inner := &flakyModel{failFirst: 1 << 30, err: fmt.Errorf("down: %w", Retryable)}
	r := NewRetrier(inner, RetryPolicy{MaxAttempts: 3})
	r.SetCost(CostModel{PerCallLatency: time.Second})
	req := CompletionRequest{Prompt: "doomed"}
	_, err := r.Complete(req)
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("want *RetryError, got %v", err)
	}
	if re.Attempts != 3 {
		t.Fatalf("attempts: %d", re.Attempts)
	}
	fp := Fingerprint("flaky", req)
	wait := jittered(fp, 1, 200*time.Millisecond) + jittered(fp, 2, 400*time.Millisecond)
	if want := 3*time.Second + wait; re.FaultLatency != want {
		t.Fatalf("fault latency: %v, want %v", re.FaultLatency, want)
	}
	if !errors.Is(err, Retryable) || !Degradable(err) {
		t.Fatalf("RetryError must expose the class sentinel: %v", err)
	}
	if inner.calls != 3 {
		t.Fatalf("inner calls: %d", inner.calls)
	}
	if s := r.Stats(); s.Failures != 1 || s.Retries != 2 || s.BackoffWait != wait {
		t.Fatalf("stats: %+v", s)
	}
}

// TestRetrierCallsAreIndependent: an exhausted call leaves nothing behind
// that fails a later one. However many calls for other prompts spent their
// budget before it, a request the backend answers succeeds on its first
// attempt, and every exhausted call reached the backend.
func TestRetrierCallsAreIndependent(t *testing.T) {
	for _, failed := range []int{1, 8, 32} {
		inner := &flakyModel{failFirst: failed, err: fmt.Errorf("down: %w", Retryable)}
		r := NewRetrier(inner, RetryPolicy{MaxAttempts: 1})
		for i := 0; i < failed; i++ {
			_, err := r.Complete(CompletionRequest{Prompt: fmt.Sprintf("doomed %d", i)})
			var re *RetryError
			if !errors.As(err, &re) || re.Attempts != 1 {
				t.Fatalf("%d failed calls: call %d: want a one-attempt RetryError, got %v", failed, i, err)
			}
		}
		resp, err := r.Complete(CompletionRequest{Prompt: "healthy"})
		if err != nil {
			t.Fatalf("after %d exhausted calls: %v", failed, err)
		}
		if resp.Text != "ans:healthy" || resp.Attempts != 1 {
			t.Fatalf("after %d exhausted calls: %+v", failed, resp)
		}
		if inner.calls != failed+1 {
			t.Fatalf("after %d exhausted calls: backend saw %d calls, want %d", failed, inner.calls, failed+1)
		}
		if s := r.Stats(); s.Calls != failed+1 || s.Failures != failed || s.Retries != 0 {
			t.Fatalf("after %d exhausted calls: stats %+v", failed, s)
		}
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

// scriptedModel fails its calls with errs in order, then answers like an
// echo model.
type scriptedModel struct {
	calls int
	errs  []error
}

func (s *scriptedModel) Name() string { return "scripted" }

func (s *scriptedModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	s.calls++
	if s.calls <= len(s.errs) {
		return CompletionResponse{}, s.errs[s.calls-1]
	}
	return CompletionResponse{Text: "ans:" + req.Prompt}, nil
}

// TestRetrierCountsRetriesBeforeFatal: a fatal error on a later attempt
// still surfaces untouched, and the retry spent before it is counted (its
// backoff already is), without counting the call as an exhausted budget.
func TestRetrierCountsRetriesBeforeFatal(t *testing.T) {
	fatal := fmt.Errorf("bad prompt: %w", Fatal)
	inner := &scriptedModel{errs: []error{fmt.Errorf("hiccup: %w", Retryable), fatal}}
	r := NewRetrier(inner, RetryPolicy{})
	req := CompletionRequest{Prompt: "x"}
	if _, err := r.Complete(req); err != fatal {
		t.Fatalf("fatal error rewritten: %v", err)
	}
	if inner.calls != 2 {
		t.Fatalf("inner calls: %d", inner.calls)
	}
	want := RetrierStats{Calls: 1, Retries: 1, BackoffWait: jittered(Fingerprint("scripted", req), 1, 200*time.Millisecond)}
	if s := r.Stats(); s != want {
		t.Fatalf("stats: %+v, want %+v", s, want)
	}
}

func TestRetrierBackoff(t *testing.T) {
	for _, tc := range []struct {
		attempt     int
		rateLimited bool
		nominal     time.Duration
	}{
		{1, false, 200 * time.Millisecond},
		{2, false, 400 * time.Millisecond},
		{3, false, 800 * time.Millisecond},
		{6, false, 5 * time.Second},  // capped
		{60, false, 5 * time.Second}, // shift overflow guard
		{1, true, 800 * time.Millisecond},
		{6, true, 20 * time.Second}, // cap × factor
	} {
		if got, want := backoff("fp", tc.attempt, tc.rateLimited), jittered("fp", tc.attempt, tc.nominal); got != want {
			t.Fatalf("backoff(attempt=%d, rl=%v) = %v, want %v", tc.attempt, tc.rateLimited, got, want)
		}
	}
}

func TestRetrierJitterDeterministicAndBounded(t *testing.T) {
	seen := map[time.Duration]bool{}
	for i := 0; i < 20; i++ {
		fp := fmt.Sprintf("request %d", i)
		d := backoff(fp, 1, false)
		if d != backoff(fp, 1, false) {
			t.Fatal("jitter is not deterministic")
		}
		if d < 150*time.Millisecond || d >= 250*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [150ms, 250ms)", d)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter barely spreads: %d distinct values of 20", len(seen))
	}
}

func TestRetrierHedgeWins(t *testing.T) {
	// The primary response carries a 5s latency spike; the duplicate is
	// clean, so launching it HedgeAfter=1s in costs ~1.3s total and wins.
	inner := &spikeOnceModel{spike: 5 * time.Second}
	r := NewRetrier(inner, RetryPolicy{HedgeAfter: time.Second})
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
	r := NewRetrier(inner, RetryPolicy{HedgeAfter: time.Second})
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
		r := NewRetrier(chaos, RetryPolicy{MaxAttempts: 3, HedgeAfter: 800 * time.Millisecond})
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
