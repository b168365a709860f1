package llm

import (
	"sync"

	"llmsql/internal/lru"
)

// DefaultCoalescerMemo bounds the Coalescer's completed-results memo. It is
// sized like DefaultCacheCapacity: large enough that every prompt of a
// serving burst against one virtual table stays resident, small enough that
// worst-case memory for real prompt sizes stays in the tens of megabytes.
const DefaultCoalescerMemo = 4096

// Coalescer merges identical completion requests across concurrent callers.
// It is the cross-query sharing layer of the serving engine: requests are
// keyed by value (requestKey — the inner model is fixed, so this is the
// identity Fingerprint would give, without the hash), the first caller for a
// key becomes the leader and runs the inner call, and every other caller —
// concurrent (joined in flight) or later (served from a bounded LRU memo of
// completed responses) — receives a copy of the leader's response without
// touching the inner backend.
//
// Accounting contract: follower copies keep the leader's Cached/DiskCached
// flags and token counts, and only additionally set Coalesced. A
// CountingModel above the Coalescer therefore bills a coalesced caller
// exactly as if it had made the call itself, which is what keeps per-session
// Usage bit-identical to a solo run; the operator-side saving (calls that
// never reached the inner backend) is visible only in CoalescerStats.
//
// The memo exists for determinism as much as for savings: with pure
// in-flight single-flight, whether two sessions coalesce would depend on
// request timing. The memo makes "one live call per distinct request"
// hold regardless of interleaving, up to memo capacity.
//
// Errors are not memoized, and they do not fan out either: when a leader
// fails, the followers that joined it in flight do not inherit the error —
// each re-enters the coalescer, the first to arrive becomes a fresh leader
// and the rest join it. One backend failure therefore costs one caller one
// retry tier, never a whole coalesced cohort; a caller only sees an error
// from a call it led itself.
//
// Most calls are never joined, so a leader only marks its request as in
// flight (a nil entry); the first follower to join allocates the flight
// the cohort waits on, and the leader releases it once its response is in
// the memo.
type Coalescer struct {
	Inner Model

	mu sync.Mutex
	// inflight holds every request a leader is calling for: nil until a
	// follower joins, then the flight its followers wait on.
	inflight map[requestKey]*flight
	memo     *lru.Cache[requestKey, CompletionResponse] // completed responses
	stats    CoalescerStats
}

// flight is one joined leader call; followers wait on done.
type flight struct {
	done sync.WaitGroup
	resp CompletionResponse
	err  error
}

// CoalescerStats reports the coalescing effectiveness as raw counters.
type CoalescerStats struct {
	// LiveCalls counts requests that actually reached the inner backend
	// (leaders). This is what the operator pays for.
	LiveCalls int
	// FlightHits counts callers that joined a concurrent leader in flight.
	FlightHits int
	// MemoHits counts callers served from the completed-results memo.
	MemoHits int
	// Errors counts leader calls that failed (propagated, never memoized).
	Errors int
	// Promotions counts followers that re-dispatched as a fresh leader
	// after the leader they had joined failed.
	Promotions int
	// Size and Capacity describe the memo occupancy; Evictions counts
	// entries dropped by the LRU bound.
	Size      int
	Capacity  int
	Evictions int
}

// Hits returns the total requests answered without an inner call.
func (s CoalescerStats) Hits() int { return s.FlightHits + s.MemoHits }

// NewCoalescer wraps m with a single-flight layer and a completed-results
// memo of DefaultCoalescerMemo entries.
func NewCoalescer(m Model) *Coalescer { return NewCoalescerSized(m, DefaultCoalescerMemo) }

// NewCoalescerSized wraps m with a single-flight layer and a memo bounded to
// capacity entries (0 selects DefaultCoalescerMemo; negative values disable
// the memo, leaving pure in-flight coalescing).
func NewCoalescerSized(m Model, capacity int) *Coalescer {
	if capacity == 0 {
		capacity = DefaultCoalescerMemo
	}
	if capacity < 0 {
		capacity = 0
	}
	return &Coalescer{
		Inner:    m,
		inflight: make(map[requestKey]*flight),
		memo:     lru.New[requestKey, CompletionResponse](capacity),
	}
}

// Name implements Model.
func (c *Coalescer) Name() string { return c.Inner.Name() }

// Unwrap implements Unwrapper.
func (c *Coalescer) Unwrap() Model { return c.Inner }

// Complete implements Model. The first caller for a request runs the
// inner call; everyone else gets a Coalesced copy of its response. A
// follower whose leader failed loops: it re-enters the critical section
// and either becomes the fresh leader itself (a promotion) or joins the
// promoted one — so the cohort behind a failed call drains one leader at a
// time until a call succeeds or every waiter has led (and failed) a call
// of its own. Termination: each iteration a caller either leads (and then
// returns, whatever the outcome) or waits on another caller's flight, so
// with finitely many callers the loop cannot run forever.
func (c *Coalescer) Complete(req CompletionRequest) (CompletionResponse, error) {
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

	resp, err := c.Inner.Complete(req)

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

// Forget drops the request's completed response from the memo, so the next
// caller leads a call of its own. A flight in progress is left alone.
// Whoever drops an entry from a layer below (DiskCache.Invalidate) must
// forget it here too, or the memo goes on answering for it.
func (c *Coalescer) Forget(req CompletionRequest) {
	key := keyOf(req)
	c.mu.Lock()
	c.memo.Remove(key)
	c.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (c *Coalescer) Stats() CoalescerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.memo.Len()
	s.Capacity = c.memo.Cap()
	return s
}

// FindCoalescer walks a wrapper chain and returns the first Coalescer, or
// nil.
func FindCoalescer(m Model) *Coalescer { return findLayer[*Coalescer](m) }
