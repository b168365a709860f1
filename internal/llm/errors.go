package llm

import (
	"errors"
	"fmt"
	"time"
)

// Error taxonomy for backend failures. Every error a Backend returns falls
// into exactly one class, checked with errors.Is against the three class
// sentinels below. The Retrier keys its policy off the class; the scan
// pipeline keys degradation off it (see Degradable).
//
// Errors that wrap none of the sentinels classify as Fatal: an unknown
// failure is an engine bug (a malformed prompt, a replay-trace miss) and
// must surface immediately rather than burn a retry budget hiding it. That
// default makes the Retrier a safe no-op on a healthy stack.
var (
	// Retryable marks transient faults — provider hiccups, torn
	// connections, malformed completions — where an identical re-issue has
	// independent odds of succeeding.
	Retryable = errors.New("llm: retryable fault")
	// RateLimited marks capacity rejections. Retryable in principle, but
	// the Retrier backs off harder: hammering a throttled backend extends
	// the outage.
	RateLimited = errors.New("llm: rate limited")
	// Fatal marks permanent failures: retrying cannot help and the error
	// must propagate to the caller.
	Fatal = errors.New("llm: fatal fault")
)

// Degradable reports whether a scan running with Config.PartialResults may
// absorb err by dropping the affected key instead of failing the query.
// Only exhausted-retry classes qualify; Fatal (and unclassified) errors
// always abort.
func Degradable(err error) bool {
	return errors.Is(err, Retryable) || errors.Is(err, RateLimited)
}

// RetryError is the Retrier's terminal failure: the attempt budget is
// spent and the last attempt's error is wrapped. It carries the accounting the scan layer needs to
// charge an abandoned call honestly — how many attempts burned and how
// much virtual time they cost — because no CompletionResponse exists to
// carry it.
type RetryError struct {
	// Attempts is the number of completions actually issued: always at
	// least 1, since every call reaches the backend.
	Attempts int
	// FaultLatency is the virtual time the failed attempts and backoff
	// waits consumed.
	FaultLatency time.Duration
	// Err is the last attempt's error.
	Err error
}

// Error implements error.
func (e *RetryError) Error() string {
	return fmt.Sprintf("llm: retries exhausted after %d attempt(s): %v", e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's error so errors.Is sees through to the
// class sentinel (Retryable, RateLimited, Fatal).
func (e *RetryError) Unwrap() error { return e.Err }
