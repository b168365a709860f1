package llm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// RetryPolicy tunes the Retrier. The zero value selects the defaults
// (DefaultRetryPolicy), so a Config can carry one unconditionally;
// negative values disable the optional pieces (jitter, breaker) where
// noted.
type RetryPolicy struct {
	// MaxAttempts is the per-call attempt budget (1 = no retries;
	// 0 selects the default).
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; each further retry
	// doubles it, capped at MaxBackoff. Both waits are virtual time,
	// charged through the response's FaultLatency — never a real sleep.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RateLimitFactor multiplies the backoff when the failure classified
	// RateLimited: hammering a throttled backend extends the outage.
	RateLimitFactor float64
	// JitterFrac spreads each backoff deterministically into
	// [1-j, 1+j) × nominal, keyed on the request fingerprint and attempt
	// number — de-synchronizing retry storms without global rand.
	// 0 selects the default; negative disables jitter.
	JitterFrac float64
	// BreakerThreshold opens the circuit breaker after that many
	// consecutive exhausted calls; while open, BreakerCooldown calls fail
	// fast before one probe is let through (half-open). 0 selects the
	// defaults; a negative threshold disables the breaker.
	BreakerThreshold int
	BreakerCooldown  int
	// HedgeAfter races a duplicate request against any primary attempt
	// whose virtual latency exceeds it, taking whichever finishes first in
	// virtual time (0 = hedging off). The loser's tokens are billed as
	// waste.
	HedgeAfter time.Duration
}

// DefaultRetryPolicy returns the defaults: 4 attempts, 200ms–5s capped
// exponential backoff with 25% jitter, 4× rate-limit penalty, breaker at 8
// consecutive failures with a 4-call cooldown, hedging off.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:      4,
		BaseBackoff:      200 * time.Millisecond,
		MaxBackoff:       5 * time.Second,
		RateLimitFactor:  4,
		JitterFrac:       0.25,
		BreakerThreshold: 8,
		BreakerCooldown:  4,
	}
}

// Normalized resolves the zero-selects-default / negative-disables
// conventions into the concrete policy a Retrier built from p would run
// with (exported so cost estimators can price the same policy).
func (p RetryPolicy) Normalized() RetryPolicy { return p.normalized() }

// normalized resolves the zero-selects-default / negative-disables
// conventions into concrete values.
func (p RetryPolicy) normalized() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = def.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = def.MaxBackoff
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	if p.RateLimitFactor <= 0 {
		p.RateLimitFactor = def.RateLimitFactor
	}
	switch {
	case p.JitterFrac < 0:
		p.JitterFrac = 0
	case p.JitterFrac == 0:
		p.JitterFrac = def.JitterFrac
	case p.JitterFrac > 1:
		p.JitterFrac = 1
	}
	switch {
	case p.BreakerThreshold < 0:
		p.BreakerThreshold = 0 // disabled
	case p.BreakerThreshold == 0:
		p.BreakerThreshold = def.BreakerThreshold
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = def.BreakerCooldown
	}
	if p.HedgeAfter < 0 {
		p.HedgeAfter = 0
	}
	return p
}

// RetrierStats counts the recovery work a Retrier performed.
type RetrierStats struct {
	// Calls counts completions asked of the Retrier; Retries counts extra
	// attempts beyond each call's first (hedge duplicates included);
	// Failures counts calls that exhausted their budget.
	Calls    int
	Retries  int
	Failures int
	// HedgesLaunched / HedgesWon count hedge races and duplicate wins.
	HedgesLaunched int
	HedgesWon      int
	// BreakerOpens counts closed→open transitions; BreakerFastFails counts
	// calls rejected without an attempt while open.
	BreakerOpens     int
	BreakerFastFails int
	// BackoffWait is the total virtual time spent waiting between
	// attempts.
	BackoffWait time.Duration
}

// errBreakerOpen classifies breaker rejections as Retryable: the backend
// may recover, and a PartialResults scan may degrade around them.
var errBreakerOpen = fmt.Errorf("llm: circuit breaker open: %w", Retryable)

// Retrier is a Backend wrapper that re-issues failed completions with
// capped exponential backoff, deterministic jitter, a per-backend circuit
// breaker and optional hedged requests. All waiting is virtual: backoff
// and failed-attempt round trips are charged into the successful
// response's FaultLatency (or a RetryError's, when the budget is spent),
// which CountingModel folds into SimLatency and scans feed through
// llm.Sched — so SimWall prices retries honestly and EXPLAIN ANALYZE shows
// them, with no real sleep anywhere (the walltime analyzer enforces that).
//
// Error handling is class-based (see Retryable, RateLimited, Fatal):
// Fatal and unclassified errors pass through on the first attempt, which
// makes the Retrier a transparent no-op on a healthy deterministic stack.
type Retrier struct {
	Inner Model

	policy RetryPolicy

	mu          sync.Mutex
	cost        CostModel
	consecFails int
	open        bool
	fastFails   int // fail-fast calls remaining while open
	halfOpen    bool
	stats       RetrierStats
}

// NewRetrier wraps inner with policy (zero fields select defaults) under
// the default cost model; callers that charge a different CostModel must
// keep it in sync via SetCost.
func NewRetrier(inner Model, policy RetryPolicy) *Retrier {
	return &Retrier{Inner: inner, policy: policy.normalized(), cost: DefaultCostModel()}
}

// Name implements Model.
func (r *Retrier) Name() string { return r.Inner.Name() }

// Unwrap implements Unwrapper.
func (r *Retrier) Unwrap() Model { return r.Inner }

// SetCost updates the cost model used to price failed attempts, backoff
// and hedge races in virtual time.
func (r *Retrier) SetCost(c CostModel) {
	r.mu.Lock()
	r.cost = c
	r.mu.Unlock()
}

// Stats returns a snapshot of the recovery counters.
func (r *Retrier) Stats() RetrierStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Complete implements Model.
func (r *Retrier) Complete(req CompletionRequest) (CompletionResponse, error) {
	r.mu.Lock()
	r.stats.Calls++
	cost := r.cost
	if r.policy.BreakerThreshold > 0 && r.open {
		if r.fastFails > 0 {
			r.fastFails--
			r.stats.BreakerFastFails++
			r.mu.Unlock()
			return CompletionResponse{}, &RetryError{Attempts: 0, Err: errBreakerOpen}
		}
		// Cooldown spent: half-open, let this call probe the backend.
		r.open = false
		r.halfOpen = true
	}
	r.mu.Unlock()

	var fp string // seeds backoff jitter only: hashed after the first failure
	var fault time.Duration
	attempts := 0
	for {
		attempts++
		resp, err := r.Inner.Complete(req)
		if err == nil {
			resp, attempts = r.maybeHedge(req, resp, attempts, cost)
			resp.Attempts = int32(attempts)
			resp.FaultLatency += fault
			r.noteOutcome(true, attempts-1)
			return resp, nil
		}
		if !Degradable(err) {
			// Fatal or unclassified: an engine bug, not backend weather.
			// Surface it untouched and leave the breaker alone.
			return CompletionResponse{}, err
		}
		// The failed attempt still consumed a round trip of virtual time.
		fault += cost.PerCallLatency
		if attempts >= r.policy.MaxAttempts {
			r.noteOutcome(false, attempts-1)
			return CompletionResponse{}, &RetryError{Attempts: attempts, FaultLatency: fault, Err: err}
		}
		if fp == "" {
			fp = Fingerprint(r.Name(), req)
		}
		wait := r.backoff(fp, attempts, errors.Is(err, RateLimited))
		fault += wait
		r.mu.Lock()
		r.stats.BackoffWait += wait
		r.mu.Unlock()
	}
}

// maybeHedge races a duplicate request against a slow primary attempt.
// The race is decided in virtual time: the duplicate starts HedgeAfter
// after the primary, and whichever finishes first wins. Both attempts hit
// a deterministic backend with an identical request, so the winning text
// is identical either way — hedging moves latency, never rows. The
// loser's tokens are billed as waste on the winning response.
func (r *Retrier) maybeHedge(req CompletionRequest, primary CompletionResponse, attempts int, cost CostModel) (CompletionResponse, int) {
	ha := r.policy.HedgeAfter
	if ha <= 0 {
		return primary, attempts
	}
	l1 := cost.Latency(primary.PromptTokens, primary.CompletionTokens) + primary.FaultLatency
	if l1 <= ha {
		return primary, attempts
	}
	attempts++
	primary.HedgeLaunched = true
	r.mu.Lock()
	r.stats.HedgesLaunched++
	r.mu.Unlock()
	dup, err := r.Inner.Complete(req)
	if err != nil {
		// The duplicate faulted; it ran in the primary's shadow, so it
		// costs nothing beyond its (zero-token) spend.
		return primary, attempts
	}
	l2 := ha + cost.Latency(dup.PromptTokens, dup.CompletionTokens) + dup.FaultLatency
	if l2 < l1 {
		dup.HedgeLaunched, dup.HedgeWon = true, true
		dup.WastedPromptTokens += primary.PromptTokens
		dup.WastedCompletionTokens += primary.CompletionTokens
		// The winner's critical path includes the HedgeAfter delay before
		// the duplicate was launched.
		dup.FaultLatency += ha
		r.mu.Lock()
		r.stats.HedgesWon++
		r.mu.Unlock()
		return dup, attempts
	}
	primary.WastedPromptTokens += dup.PromptTokens
	primary.WastedCompletionTokens += dup.CompletionTokens
	return primary, attempts
}

// backoff returns the virtual wait before retry number attempt (1-based:
// the wait after the attempt'th failure), exponential from BaseBackoff,
// capped, rate-limit-scaled, and jittered deterministically.
func (r *Retrier) backoff(fp string, attempt int, rateLimited bool) time.Duration {
	p := r.policy
	d := p.MaxBackoff
	if shift := attempt - 1; shift < 20 {
		if b := p.BaseBackoff << shift; b < d {
			d = b
		}
	}
	if rateLimited {
		d = time.Duration(float64(d) * p.RateLimitFactor)
		if d > p.MaxBackoff*time.Duration(int64(p.RateLimitFactor)+1) {
			d = p.MaxBackoff * time.Duration(int64(p.RateLimitFactor)+1)
		}
	}
	if p.JitterFrac > 0 {
		d = time.Duration(float64(d) * (1 - p.JitterFrac + 2*p.JitterFrac*backoffU(fp, attempt)))
	}
	return d
}

// noteOutcome advances the circuit breaker and the retry counters after a
// call's terminal outcome.
func (r *Retrier) noteOutcome(success bool, retries int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Retries += retries
	if success {
		r.consecFails = 0
		r.halfOpen = false
		return
	}
	r.stats.Failures++
	if r.policy.BreakerThreshold <= 0 {
		return
	}
	r.consecFails++
	if r.halfOpen || r.consecFails >= r.policy.BreakerThreshold {
		r.open = true
		r.halfOpen = false
		r.fastFails = r.policy.BreakerCooldown
		r.consecFails = 0
		r.stats.BreakerOpens++
	}
}

// backoffU derives the deterministic jitter uniform in [0,1) for one
// (request, attempt) pair. Attempt-first for the same reason as chaosU:
// fnv barely diffuses a trailing-byte difference into the top mantissa
// bits.
func backoffU(fp string, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "backoff|%d|%s", attempt, fp)
	return float64(h.Sum64()>>11) / float64(1<<53)
}
