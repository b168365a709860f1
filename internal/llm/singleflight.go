package llm

import "sync"

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
// Accounting contract: follower copies keep the leader's Provenance and
// token counts, and only additionally set Coalesced. Billing above the
// Coalescer (CostModel.Bill) therefore charges a coalesced caller
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
// The two tiers are one table: each request is one entry from its leader's
// start until its call fails, it is evicted, or Forget drops it. An entry in
// flight is outside the LRU bound; a done entry is a memo entry, linked into
// the recency ring. Most calls are never joined, so the flight followers
// wait on is made only when the first one joins, and evicted entries are
// recycled: a miss nobody joins allocates nothing and makes three map
// operations (a probe, an insert and, at capacity, the eviction's delete).
type Coalescer struct {
	Inner Model

	mu       sync.Mutex
	table    map[requestKey]*entry
	ring     entry  // sentinel of the done entries: ring.next is most recent
	size     int    // done entries, at most capacity
	capacity int    // 0 retains nothing
	free     *entry // dropped entries for reuse, linked through next
	stats    CoalescerStats
}

// entry is one request in the table. Its fields are the Coalescer's,
// guarded by its mutex.
type entry struct {
	key        requestKey
	resp       CompletionResponse // set once done
	done       bool               // resp is published and the entry is in the ring
	fl         *flight            // nil until a follower joins the call in flight
	prev, next *entry
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
	c := &Coalescer{Inner: m, table: make(map[requestKey]*entry), capacity: max(capacity, 0)}
	c.ring.prev, c.ring.next = &c.ring, &c.ring
	return c
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
		e := c.table[key]
		if e == nil {
			break
		}
		if e.done {
			c.unlink(e)
			c.pushFront(e)
			resp := e.resp
			c.stats.MemoHits++
			c.mu.Unlock()
			resp.Coalesced = true
			return resp, nil
		}
		fl := e.fl
		if fl == nil {
			fl = &flight{}
			fl.done.Add(1)
			e.fl = fl
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
	e := c.free
	if e != nil {
		c.free = e.next
		e.key, e.done, e.fl = key, false, nil
	} else {
		e = &entry{key: key}
	}
	c.table[key] = e
	c.stats.LiveCalls++
	c.mu.Unlock()

	resp, err := c.Inner.Complete(req)

	c.mu.Lock()
	fl := e.fl
	switch {
	case err != nil:
		c.stats.Errors++
		c.drop(e)
	case c.capacity == 0:
		c.drop(e)
	default:
		if c.size == c.capacity {
			old := c.ring.prev
			c.unlink(old)
			c.drop(old)
			c.stats.Evictions++
		} else {
			c.size++
		}
		e.resp, e.done = resp, true
		c.pushFront(e)
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
	if e := c.table[key]; e != nil && e.done {
		c.unlink(e)
		c.size--
		c.drop(e)
	}
	c.mu.Unlock()
}

// drop deletes e's key from the table and keeps e for reuse; e must be out
// of the ring.
func (c *Coalescer) drop(e *entry) {
	delete(c.table, e.key)
	e.next, c.free = c.free, e
}

func (c *Coalescer) unlink(e *entry) { e.prev.next, e.next.prev = e.next, e.prev }

func (c *Coalescer) pushFront(e *entry) {
	e.prev, e.next = &c.ring, c.ring.next
	e.prev.next, e.next.prev = e, e
}

// Stats returns a snapshot of the counters.
func (c *Coalescer) Stats() CoalescerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size, s.Capacity = c.size, c.capacity
	return s
}
