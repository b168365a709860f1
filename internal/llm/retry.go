package llm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// RetryPolicy tunes the Retrier. The zero value selects the defaults, so a
// Config can carry one unconditionally. The backoff shape is fixed:
// BaseBackoff (200ms) before the first retry, doubling per retry up to 5s,
// ×4 when the failure classified RateLimited (hammering a throttled
// backend extends the outage), spread ±25% by deterministic jitter keyed
// on the request fingerprint and attempt number — de-synchronizing retry
// storms without global rand. All waits are virtual time, charged through
// the response's FaultLatency — never a real sleep.
type RetryPolicy struct {
	// MaxAttempts is the per-call attempt budget (1 = no retries;
	// 0 selects the default of 4).
	MaxAttempts int
	// HedgeAfter races a duplicate request against any primary attempt
	// whose virtual latency exceeds it, taking whichever finishes first in
	// virtual time (0 = hedging off). The loser's tokens are billed as
	// waste.
	HedgeAfter time.Duration
}

// BaseBackoff is the virtual wait before a call's first retry (exported so
// cost estimators price the wait the Retrier charges).
const BaseBackoff = 200 * time.Millisecond

const (
	defaultMaxAttempts = 4
	maxBackoff         = 5 * time.Second
	rateLimitFactor    = 4
	jitterFrac         = 0.25
)

// Normalized resolves the zero-selects-default convention into the policy
// a Retrier built from p runs with (exported so cost estimators can price
// the same attempt budget).
func (p RetryPolicy) Normalized() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultMaxAttempts
	}
	return p
}

// RetrierStats counts the recovery work a Retrier performed.
type RetrierStats struct {
	// Calls counts completions asked of the Retrier; Retries counts extra
	// attempts beyond each call's first (hedge duplicates included),
	// whatever the call's outcome; Failures counts calls that exhausted
	// their budget.
	Calls    int
	Retries  int
	Failures int
	// HedgesLaunched / HedgesWon count hedge races and duplicate wins.
	HedgesLaunched int
	HedgesWon      int
	// BackoffWait is the total virtual time spent waiting between
	// attempts.
	BackoffWait time.Duration
}

// Retrier is a Backend wrapper that re-issues failed completions with
// capped exponential backoff, deterministic jitter and optional hedged
// requests. All waiting is virtual: backoff and failed-attempt round trips
// are charged into the successful response's FaultLatency (or a
// RetryError's, when the budget is spent), which CostModel.Bill folds into
// SimLatency and scans feed through llm.Sched — so SimWall prices retries
// honestly and EXPLAIN ANALYZE shows them, with no real sleep anywhere (the
// walltime analyzer enforces that). A call's outcome is a function of its
// request and the inner model's answers alone: no state carries from one
// call to the next but the counters, so a faulty run's rows never depend
// on the order concurrent calls finish in.
//
// Error handling is class-based (see Retryable, RateLimited, Fatal):
// Fatal and unclassified errors pass through on the first attempt, which
// makes the Retrier a transparent no-op on a healthy deterministic stack.
type Retrier struct {
	Inner Model

	policy RetryPolicy

	mu    sync.Mutex
	cost  CostModel
	stats RetrierStats
}

// NewRetrier wraps inner with policy (zero fields select defaults) under
// the default cost model; callers that charge a different CostModel must
// keep it in sync via SetCost.
func NewRetrier(inner Model, policy RetryPolicy) *Retrier {
	return &Retrier{Inner: inner, policy: policy.Normalized(), cost: DefaultCostModel()}
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
			r.noteOutcome(false, attempts-1)
			return resp, nil
		}
		if !Degradable(err) {
			// Fatal or unclassified: an engine bug, not backend weather.
			// Surface it untouched; the retries before it still count.
			r.noteOutcome(false, attempts-1)
			return CompletionResponse{}, err
		}
		// The failed attempt still consumed a round trip of virtual time.
		fault += cost.PerCallLatency
		if attempts >= r.policy.MaxAttempts {
			r.noteOutcome(true, attempts-1)
			return CompletionResponse{}, &RetryError{Attempts: attempts, FaultLatency: fault, Err: err}
		}
		if fp == "" {
			fp = Fingerprint(r.Name(), req)
		}
		wait := backoff(fp, attempts, errors.Is(err, RateLimited))
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
func backoff(fp string, attempt int, rateLimited bool) time.Duration {
	d := maxBackoff
	if shift := attempt - 1; shift < 20 {
		if b := BaseBackoff << shift; b < d {
			d = b
		}
	}
	if rateLimited {
		d *= rateLimitFactor
	}
	return time.Duration(float64(d) * (1 - jitterFrac + 2*jitterFrac*backoffU(fp, attempt)))
}

// noteOutcome counts a call's retries, and its failure when it exhausted
// the attempt budget.
func (r *Retrier) noteOutcome(exhausted bool, retries int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Retries += retries
	if exhausted {
		r.stats.Failures++
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
