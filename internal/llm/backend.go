package llm

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
)

// The model stack is built from pluggable backends. A Backend is anything
// that completes prompts — the same contract as Model; the two names are
// aliases. "Backend" is used when talking about the bottom of the stack and
// the persistence layers above it, "Model" when talking about the
// engine-facing top. The full stack, outermost first, one layer type per
// line with the Config field that adds it; "(group)" layers exist only under
// core.NewEngineGroup. core's one builder assembles it and core's
// TestStackOrder reads this list, so it cannot drift from the code. No layer
// bills an engine's queries: above the stack, each query bills the calls its
// scans complete into its own account, under the same rule (CostModel.Bill)
// as the group's live CountingModel.
//
//	CacheModel             in-memory bounded LRU, one per engine (Config.CacheCapacity)
//	---- the fork: core.Open puts one engine above this line, a group one per Session ----
//	Coalescer              cross-session single-flight + memo (group)
//	DiskCache              persistent content-addressed prompt cache (Config.CacheDir)
//	Retrier                retry, backoff, hedging
//	CountingModel          live, operator-side usage (group)
//	Chaos                  seeded fault injection (Config.Chaos)
//	recorder | replayer    trace capture / deterministic playback (Config.RecordTrace | Config.ReplayTrace)
//	SynthLM                the base backend (or any API adapter)
//
// Every layer implements Unwrapper, so the two caches a scan's counters
// need can be located regardless of stacking order (FindCache,
// FindDiskCache); core reaches every other layer through the backend that
// built it. A response's Provenance, not the chain, says which layer
// answered it. The layers whose keys outlive the process — DiskCache,
// Chaos, Recorder/Replayer — address completions by Fingerprint, the
// versioned content hash of (model id, prompt, decode parameters), and are
// the only ones that hash on every call.
// CacheModel and the Coalescer wrap one fixed model and key by the request's
// value (requestKey); the Retrier fingerprints only a call that has already
// failed, to seed its backoff jitter.

// Backend is a pluggable completion provider. It is the same interface as
// Model under the name used for the storage side of the stack: SynthLM, a
// hosted API adapter, a Replayer serving a recorded trace, or a DiskCache
// layered over any of them.
type Backend = Model

// FingerprintVersion versions the content-address format. Bumping it
// invalidates every previously persisted cache entry and trace record: old
// fingerprints can no longer be produced, so stale completions are never
// served after a change to the prompt protocol or the fingerprint encoding
// itself.
const FingerprintVersion = 1

// Fingerprint returns the content address of one completion request against
// a named model: the hex SHA-256 of a versioned canonical encoding of the
// model id, the prompt and the decode parameters (max tokens, temperature,
// seed). Everything that can change a deterministic backend's answer is in
// the hash; nothing else is.
func Fingerprint(model string, req CompletionRequest) string {
	return fingerprintAt(FingerprintVersion, model, req)
}

// fingerprintAt is Fingerprint pinned to an explicit format version
// (exposed separately so versioning tests can produce "old" fingerprints).
// One buffer, one hashing pass: the result string is the only allocation,
// plus one spill when the encoding outgrows the stack buffer.
func fingerprintAt(version int, model string, req CompletionRequest) string {
	// NUL-separated fields: no field can contain NUL, so the encoding is
	// injective and fingerprints cannot collide across field boundaries.
	var stack [1024]byte
	b := append(stack[:0], "llmsql-fp-v"...)
	b = append(strconv.AppendInt(b, int64(version), 10), 0)
	b = append(append(b, model...), 0)
	b = append(strconv.AppendInt(b, int64(req.MaxTokens), 10), 0)
	b = append(strconv.AppendFloat(b, req.Temperature, 'g', -1, 64), 0)
	b = append(strconv.AppendInt(b, req.Seed, 10), 0)
	sum := sha256.Sum256(append(b, req.Prompt...))
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// requestKey identifies a request to the in-memory layers. For a fixed model
// name two requests have equal keys exactly when their fingerprints are
// equal: the temperature goes in as its bits, which the fingerprint's
// shortest round-trip rendering tells apart one for one (0 from -0 too), and
// every NaN folds onto one key as onto one rendering. A raw float64 field
// would make a NaN key unequal to itself: inserted on every call, never
// found again, not even to be deleted.
type requestKey struct {
	prompt    string
	maxTokens int
	tempBits  uint64
	seed      int64
}

func keyOf(req CompletionRequest) requestKey {
	if req.Temperature != req.Temperature {
		req.Temperature = math.NaN()
	}
	return requestKey{req.Prompt, req.MaxTokens, math.Float64bits(req.Temperature), req.Seed}
}
