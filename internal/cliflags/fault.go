package cliflags

import (
	"flag"
	"time"

	"llmsql/internal/core"
	"llmsql/internal/llm"
)

// FaultFlags groups the fault-injection and fault-tolerance flags so every
// binary exposes them with identical names, defaults and semantics. All
// defaults are off, so a command line without any of these flags runs
// byte-identically to a build without the fault layer. The retry budget and
// malformed-completion rate keep their llm defaults here; the bench tables
// and tests set them on llm.RetryPolicy and llm.ChaosProfile. The backoff
// shape is fixed in llm and has no knob.
type FaultFlags struct {
	ChaosSeed      int64
	ChaosError     float64
	ChaosRateLimit float64
	ChaosSpike     float64
	HedgeAfter     time.Duration
	PartialResults bool
}

// Register installs the fault flags on fs.
func (f *FaultFlags) Register(fs *flag.FlagSet) {
	fs.Int64Var(&f.ChaosSeed, "chaos-seed", 0, "seed of the deterministic fault-injection stream (same seed + same requests = byte-identical faults)")
	fs.Float64Var(&f.ChaosError, "chaos-error", 0, "probability in [0,1] of an injected transient backend error per attempt (0 = off)")
	fs.Float64Var(&f.ChaosRateLimit, "chaos-ratelimit", 0, "probability in [0,1] of an injected rate-limit rejection per attempt (0 = off)")
	fs.Float64Var(&f.ChaosSpike, "chaos-spike", 0, "probability in [0,1] of an injected 2s virtual-latency spike per call (0 = off)")
	fs.DurationVar(&f.HedgeAfter, "hedge-after", 0, "race a duplicate request against any call slower than this virtual latency and keep the first finisher (0 = hedging off)")
	fs.BoolVar(&f.PartialResults, "partial-results", false, "degrade scans around calls that exhaust their retries — drop the affected keys, report them in the scan stats — instead of failing the query")
}

// Chaos renders the injection flags as the profile the engine consumes.
func (f *FaultFlags) Chaos() llm.ChaosProfile {
	return llm.ChaosProfile{
		Seed:          f.ChaosSeed,
		TransientRate: f.ChaosError,
		RateLimitRate: f.ChaosRateLimit,
		SpikeRate:     f.ChaosSpike,
		// Table 15 varies the spike latency in-process; no command line does.
		SpikeLatency: 2 * time.Second,
	}
}

// Retry renders the recovery flags as a policy (zero fields select the
// engine defaults).
func (f *FaultFlags) Retry() llm.RetryPolicy {
	return llm.RetryPolicy{HedgeAfter: f.HedgeAfter}
}

// Apply copies the flags onto an engine configuration.
func (f *FaultFlags) Apply(cfg *core.Config) {
	cfg.Chaos = f.Chaos()
	cfg.Retry = f.Retry()
	cfg.PartialResults = f.PartialResults
}
