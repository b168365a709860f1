package llm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// echoModel returns a canned completion, for wrapper tests.
type echoModel struct {
	mu    sync.Mutex
	calls int
}

func (e *echoModel) Name() string { return "echo" }

func (e *echoModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	e.mu.Lock()
	e.calls++
	e.mu.Unlock()
	text := fmt.Sprintf("echo:%d:%d", len(req.Prompt), req.Seed)
	return CompletionResponse{
		Text:             text,
		PromptTokens:     CountTokens(req.Prompt),
		CompletionTokens: CountTokens(text),
	}, nil
}

func TestCostModel(t *testing.T) {
	c := CostModel{
		PerCallLatency:       100 * time.Millisecond,
		PerPromptToken:       time.Millisecond,
		PerCompletionToken:   10 * time.Millisecond,
		PromptUSDPerMTok:     1.0,
		CompletionUSDPerMTok: 3.0,
	}
	lat := c.Latency(50, 20)
	want := 100*time.Millisecond + 50*time.Millisecond + 200*time.Millisecond
	if lat != want {
		t.Fatalf("latency: %v want %v", lat, want)
	}
	d := c.Dollars(1_000_000, 1_000_000)
	if d != 4.0 {
		t.Fatalf("dollars: %f", d)
	}
}

func TestCountingModel(t *testing.T) {
	inner := &echoModel{}
	cm := NewCounting(inner)
	for i := 0; i < 3; i++ {
		if _, err := cm.Complete(CompletionRequest{Prompt: "hello world"}); err != nil {
			t.Fatal(err)
		}
	}
	u := cm.Usage()
	if u.Calls != 3 {
		t.Fatalf("calls: %d", u.Calls)
	}
	// "hello world" tokenizes as hell|o|worl|d = 4 tokens per call.
	if u.PromptTokens != 3*4 {
		t.Fatalf("prompt tokens: %d", u.PromptTokens)
	}
	if u.SimLatency <= 0 || u.SimDollars <= 0 {
		t.Fatalf("cost accounting: %+v", u)
	}
	// A cached call counts, and costs nothing.
	cached := CompletionResponse{PromptTokens: 9, SimLatency: time.Second, Provenance: Provenance{From: Memory}}
	if u, nano := DefaultCostModel().Bill(&cached); u != (Usage{Calls: 1, CachedCalls: 1}) || nano != 0 || cached.SimLatency != 0 {
		t.Fatalf("a cached call bills %+v and %d nano-dollars, SimLatency %v", u, nano, cached.SimLatency)
	}
}

func TestUsageAdd(t *testing.T) {
	a := Usage{Calls: 1, PromptTokens: 10, CompletionTokens: 5, SimLatency: time.Second, SimDollars: 0.5}
	b := Usage{Calls: 2, PromptTokens: 20, CompletionTokens: 15, SimLatency: time.Second, SimDollars: 1.0}
	a.Add(b)
	if a.Calls != 3 || a.TotalTokens() != 50 || a.SimDollars != 1.5 {
		t.Fatalf("add: %+v", a)
	}
}

func TestCacheModel(t *testing.T) {
	inner := &echoModel{}
	cache := NewCache(inner)
	req := CompletionRequest{Prompt: "p", Seed: 1}
	r1, err := cache.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cache.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Text != r2.Text {
		t.Fatal("cache changed result")
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls: %d", inner.calls)
	}
	// Different seed misses.
	if _, err := cache.Complete(CompletionRequest{Prompt: "p", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 2 {
		t.Fatalf("inner calls after seed change: %d", inner.calls)
	}
	s := cache.CacheStats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestCountingModelConcurrent(t *testing.T) {
	cm := NewCounting(&echoModel{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := cm.Complete(CompletionRequest{Prompt: "x"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cm.Usage().Calls != 400 {
		t.Fatalf("concurrent calls: %d", cm.Usage().Calls)
	}
}

// tokenModel answers with token counts taken from the request seed, so a
// test chooses each call's price.
type tokenModel struct{}

func (tokenModel) Name() string { return "tokens" }

func (tokenModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	return CompletionResponse{PromptTokens: int(req.Seed % 100003), CompletionTokens: int(req.Seed % 997)}, nil
}

// TestCountingDollarsOrderIndependent bills one multiset of responses twice,
// each time from concurrent goroutines working through a different shuffle.
// float64 addition does not commute in the last bit, so a bill summed in
// completion order differs between the two; the integer bill cannot.
func TestCountingDollarsOrderIndependent(t *testing.T) {
	const calls, workers = 4000, 8
	seeds := make([]int64, calls)
	for i := range seeds {
		seeds[i] = int64(i) * 7919
	}
	bill := func(shuffle int64) Usage {
		order := append([]int64(nil), seeds...)
		rand.New(rand.NewSource(shuffle)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		cm := NewCounting(tokenModel{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(part []int64) {
				defer wg.Done()
				for _, seed := range part {
					if _, err := cm.Complete(CompletionRequest{Seed: seed}); err != nil {
						t.Error(err)
					}
				}
			}(order[w*calls/workers : (w+1)*calls/workers])
		}
		wg.Wait()
		return cm.Usage()
	}
	a, b := bill(1), bill(2)
	if a.SimDollars <= 0 || a.Calls != calls {
		t.Fatalf("nothing billed: %+v", a)
	}
	if math.Float64bits(a.SimDollars) != math.Float64bits(b.SimDollars) {
		t.Fatalf("the bill depends on completion order: %.17g vs %.17g", a.SimDollars, b.SimDollars)
	}
	if a != b {
		t.Fatalf("usage differs between orders:\n%+v\n%+v", a, b)
	}
}
