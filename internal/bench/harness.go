package bench

import (
	"fmt"

	"llmsql/internal/core"
	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/metrics"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
	"llmsql/internal/storage"
	"llmsql/internal/world"
)

// Options scales and seeds the experiment suite.
type Options struct {
	// Seed drives world generation and model identity.
	Seed int64
	// Scale multiplies workload sizes; 1.0 is the paper-style run, tests
	// use smaller values. Values below 0.05 are clamped.
	Scale float64
	// CacheDir, when non-empty, gives every experiment engine a persistent
	// prompt cache at this directory (experiments that manage their own
	// cache, like Table 13, keep theirs). Engines are used sequentially, so
	// sharing one directory across the suite is safe.
	CacheDir string
	// Record, when non-nil, captures every completion that reaches an
	// experiment model into the trace — the replay-fixture recorder (one
	// trace holds all experiment models; fingerprints embed the model id).
	Record *llm.Trace
	// Replay, when non-nil, serves every experiment model from the trace
	// instead of a live SynthLM; a request outside the trace is an error.
	// Deterministic playback for CI. Replay wins when both are set.
	Replay *llm.Trace
	// Chaos, when enabled, injects the deterministic fault stream into every
	// experiment engine — the fault-sweep (Table 15) and chaos-check runs.
	Chaos llm.ChaosProfile
	// Retry overrides the engines' retry policy; the zero value keeps each
	// experiment's own (the engine defaults).
	Retry llm.RetryPolicy
	// PartialResults lets experiment scans degrade around exhausted retries
	// instead of failing — required for full-suite runs under chaos.
	PartialResults bool
}

// DefaultOptions is the paper-style configuration.
func DefaultOptions() Options { return Options{Seed: 2024, Scale: 1.0} }

func (o Options) normalize() Options {
	if o.Scale < 0.05 {
		o.Scale = 0.05
	}
	if o.Seed == 0 {
		o.Seed = 2024
	}
	return o
}

// scaled returns max(lo, round(n*Scale)).
func (o Options) scaled(n, lo int) int {
	v := int(float64(n) * o.Scale)
	if v < lo {
		v = lo
	}
	return v
}

// buildWorld generates the evaluation world at the configured scale.
func (o Options) buildWorld() *world.World {
	return world.Generate(world.Config{
		Seed:      o.Seed,
		Countries: o.scaled(180, 20),
		Movies:    o.scaled(400, 30),
		Laureates: o.scaled(250, 20),
		Companies: o.scaled(300, 20),
	})
}

// newEngine wires a fresh engine over a fresh SynthLM for the world,
// applying the suite-wide cache directory and record/replay trace from the
// options (per-experiment config settings win).
func (o Options) newEngine(w *world.World, profile llm.NoiseProfile, cfg core.Config, seed int64) *core.Engine {
	if cfg.CacheDir == "" {
		cfg.CacheDir = o.CacheDir
	}
	if cfg.RecordTrace == nil {
		cfg.RecordTrace = o.Record
	}
	if cfg.ReplayTrace == nil {
		cfg.ReplayTrace = o.Replay
	}
	o.applyFaults(&cfg)
	model := llm.NewSynthLM(w, profile, seed)
	e := core.New(model, cfg)
	for _, name := range w.DomainNames() {
		e.RegisterWorldDomain(w.Domain(name))
	}
	return e
}

// applyFaults overlays the suite-wide fault options onto one engine config
// (per-experiment settings win, mirroring the cache/trace overlay above).
func (o Options) applyFaults(cfg *core.Config) {
	if !cfg.Chaos.Enabled() {
		cfg.Chaos = o.Chaos
	}
	if cfg.Retry == (llm.RetryPolicy{}) {
		cfg.Retry = o.Retry
	}
	if o.PartialResults {
		cfg.PartialResults = true
	}
}

// baseline runs the query on the ground-truth row store and returns its
// rows. It is not timed: the row store's real-clock cost is the real-clock
// harness's storage.scan_us, and this suite reports only virtual-clock
// figures.
func baseline(db *storage.DB, query string) (*exec.Result, error) {
	sel, err := sql.ParseSelect(query)
	if err != nil {
		return nil, err
	}
	node, err := plan.Plan(sel, &exec.StorageCatalog{DB: db})
	if err != nil {
		return nil, err
	}
	return exec.Execute(node, &exec.StorageSource{DB: db})
}

// scoreAgainstBaseline runs query on both engines and compares the result
// sets key-wise on the first output column.
func scoreAgainstBaseline(e *core.Engine, db *storage.DB, query string, opt metrics.Options) (metrics.SetMetrics, llm.Usage, error) {
	truth, err := baseline(db, query)
	if err != nil {
		return metrics.SetMetrics{}, llm.Usage{}, fmt.Errorf("baseline %q: %w", query, err)
	}
	got, err := e.Query(query)
	if err != nil {
		return metrics.SetMetrics{}, llm.Usage{}, fmt.Errorf("llm %q: %w", query, err)
	}
	return metrics.Compare(got.Result.Rows, truth.Rows, opt), got.Usage, nil
}

// scalarAnswer extracts the single value of a one-row one-column result.
func scalarAnswer(res *exec.Result) rel.Value {
	if len(res.Rows) == 0 || len(res.Rows[0]) == 0 {
		return rel.Null()
	}
	return res.Rows[0][0]
}

// attrTolerance is the relative numeric tolerance used when scoring
// attribute cells: small perturbations from the model's value noise below
// this threshold count as correct, mirroring the paper's "approximately
// correct" judgement for numeric facts.
const attrTolerance = 0.02
