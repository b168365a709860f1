package llm

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// chaosRun replays one fixed request schedule — reqs distinct prompts,
// tries attempts each — against a fresh Chaos over a fresh echo model and
// returns the per-attempt outcome stream plus the injector's counters.
func chaosRun(t *testing.T, profile ChaosProfile, reqs, tries int) (string, ChaosStats) {
	t.Helper()
	c := NewChaos(&echoModel{}, profile)
	out := ""
	for i := 0; i < reqs; i++ {
		req := CompletionRequest{Prompt: fmt.Sprintf("prompt %d", i), Seed: int64(i)}
		for a := 0; a < tries; a++ {
			resp, err := c.Complete(req)
			switch {
			case err == nil && resp.FaultLatency > 0:
				out += "S" // spiked success
			case err == nil:
				out += "."
			case errors.Is(err, RateLimited):
				out += "R"
			case errors.Is(err, Retryable):
				out += "T"
			default:
				t.Fatalf("chaos produced an unclassified error: %v", err)
			}
		}
	}
	return out, c.Stats()
}

func TestChaosDeterministicStream(t *testing.T) {
	p := ChaosProfile{Seed: 42, TransientRate: 0.15, RateLimitRate: 0.1, SpikeRate: 0.1, SpikeLatency: time.Second}
	a, sa := chaosRun(t, p, 40, 3)
	b, sb := chaosRun(t, p, 40, 3)
	if a != b {
		t.Fatalf("same seed produced different fault streams:\n%s\n%s", a, b)
	}
	if sa != sb {
		t.Fatalf("same seed produced different stats: %+v vs %+v", sa, sb)
	}
	if sa.Transient == 0 || sa.RateLimited == 0 || sa.Spikes == 0 {
		t.Fatalf("expected every configured fault class to fire: %+v", sa)
	}
	c, _ := chaosRun(t, ChaosProfile{Seed: 43, TransientRate: 0.15, RateLimitRate: 0.1, SpikeRate: 0.1, SpikeLatency: time.Second}, 40, 3)
	if a == c {
		t.Fatal("different seeds produced identical fault streams")
	}
}

// TestChaosAttemptIndependence pins the retry contract: a request that
// faults on its first attempt must redraw on later attempts, so at a
// moderate rate most faulted requests clear well inside a 4-attempt
// budget. (This is the regression test for hashing the attempt number
// last, where fnv's weak trailing-byte diffusion made every attempt of a
// faulted fingerprint fail.)
func TestChaosAttemptIndependence(t *testing.T) {
	p := ChaosProfile{Seed: 7, TransientRate: 0.3}
	c := NewChaos(&echoModel{}, p)
	faulted, allFourFailed := 0, 0
	for i := 0; i < 300; i++ {
		req := CompletionRequest{Prompt: fmt.Sprintf("key %d", i)}
		fails := 0
		for a := 0; a < 4; a++ {
			if _, err := c.Complete(req); err != nil {
				fails++
			} else {
				break
			}
		}
		if fails > 0 {
			faulted++
		}
		if fails == 4 {
			allFourFailed++
		}
	}
	if faulted < 50 {
		t.Fatalf("30%% transient rate faulted only %d of 300 first attempts", faulted)
	}
	// P(4 consecutive faults) = 0.3^4 ≈ 0.8%: a handful at most, never
	// the majority of faulted requests.
	if allFourFailed > faulted/4 {
		t.Fatalf("retry draws are not independent: %d of %d faulted requests failed all 4 attempts", allFourFailed, faulted)
	}
}

func TestChaosInjectionRate(t *testing.T) {
	p := ChaosProfile{Seed: 11, TransientRate: 0.2}
	_, s := chaosRun(t, p, 1000, 1)
	if s.Calls != 1000 {
		t.Fatalf("calls: %d", s.Calls)
	}
	if s.Transient < 150 || s.Transient > 250 {
		t.Fatalf("20%% rate injected %d of 1000 faults", s.Transient)
	}
}

func TestChaosSpikeDelaysButSucceeds(t *testing.T) {
	p := ChaosProfile{Seed: 5, SpikeRate: 1, SpikeLatency: 3 * time.Second}
	c := NewChaos(&echoModel{}, p)
	resp, err := c.Complete(CompletionRequest{Prompt: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FaultLatency != 3*time.Second {
		t.Fatalf("spike latency: %v", resp.FaultLatency)
	}
	plain, _ := (&echoModel{}).Complete(CompletionRequest{Prompt: "hello"})
	if resp.Text != plain.Text {
		t.Fatalf("spike changed the completion text: %q vs %q", resp.Text, plain.Text)
	}
}

func TestChaosErrorClassification(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile ChaosProfile
		class   error
	}{
		{"transient", ChaosProfile{Seed: 1, TransientRate: 1}, Retryable},
		{"ratelimit", ChaosProfile{Seed: 1, RateLimitRate: 1}, RateLimited},
		{"malformed", ChaosProfile{Seed: 1, MalformedRate: 1}, Retryable},
	} {
		c := NewChaos(&echoModel{}, tc.profile)
		_, err := c.Complete(CompletionRequest{Prompt: "x"})
		if err == nil {
			t.Fatalf("%s: rate 1 must fault every call", tc.name)
		}
		if !errors.Is(err, tc.class) {
			t.Fatalf("%s: error %v is not %v", tc.name, err, tc.class)
		}
		if !Degradable(err) {
			t.Fatalf("%s: injected fault must be degradable", tc.name)
		}
		if errors.Is(err, Fatal) {
			t.Fatalf("%s: injected fault classified fatal", tc.name)
		}
	}
}

func TestChaosProfileNormalization(t *testing.T) {
	p := ChaosProfile{TransientRate: 2, RateLimitRate: -1, SpikeLatency: -time.Second}
	if r := p.FailureRate(); r != 1 {
		t.Fatalf("FailureRate with over-provisioned rates: %v", r)
	}
	if (ChaosProfile{}).Enabled() {
		t.Fatal("zero profile must be disabled")
	}
	if (ChaosProfile{}).FailureRate() != 0 {
		t.Fatal("zero profile must have zero failure rate")
	}
	if !(ChaosProfile{SpikeRate: 0.1}).Enabled() {
		t.Fatal("spike-only profile must be enabled")
	}
	if (ChaosProfile{SpikeRate: 1}).FailureRate() != 0 {
		t.Fatal("spikes delay but succeed; they are not failures")
	}
}
