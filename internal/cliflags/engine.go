package cliflags

import (
	"flag"
	"fmt"
	"strings"

	"llmsql/internal/core"
	"llmsql/internal/llm"
	"llmsql/internal/world"
)

// EngineFlags groups the flags llmsql and llmsql-serve share: the synthetic
// world, the simulated model's tier, the engine knobs and the record/replay
// traces. One declaration, so a knob spells, defaults and documents the same
// on both binaries. Knobs only the bench tables and tests vary (MaxRounds,
// Tolerant, Pushdown, LimitPushdown, BindJoin) keep their DefaultConfig
// values here and are set on core.Config in-process.
type EngineFlags struct {
	Seed      int64
	Model     string
	Strategy  string
	Temp      float64
	Votes     int
	Batch     int
	Parallel  int
	Cache     int
	CacheDir  string
	Record    string
	Replay    string
	ViewTTL   int
	Countries int
	Movies    int
}

// Register installs the engine flags on fs.
func (f *EngineFlags) Register(fs *flag.FlagSet) {
	fs.Int64Var(&f.Seed, "seed", 2024, "world and model seed")
	fs.StringVar(&f.Model, "model", "medium", "model quality tier: small, medium, large")
	fs.StringVar(&f.Strategy, "strategy", "full-table", "prompt strategy: full-table, key-then-attr, paged, auto (cost-based per table)")
	fs.Float64Var(&f.Temp, "temp", 0.7, "sampling temperature")
	fs.IntVar(&f.Votes, "votes", 1, "self-consistency votes for attribute retrieval")
	fs.IntVar(&f.Batch, "batch", 1, "keys per batched ATTR prompt on the key-then-attr path (1 = unbatched)")
	fs.IntVar(&f.Parallel, "parallel", 1, "worker-pool width for concurrent model calls per scan (1 = serial)")
	fs.IntVar(&f.Cache, "cache", 0, "in-memory completion-cache capacity in entries, per engine or server session (0 = off, negative = default)")
	fs.StringVar(&f.CacheDir, "cache-dir", "", "persistent prompt-cache directory (content-addressed, survives processes, shared by a server's sessions; empty = off)")
	fs.StringVar(&f.Record, "record", "", "record every live model completion into this trace file on exit (replay fixture)")
	fs.StringVar(&f.Replay, "replay", "", "serve all completions from this trace file instead of the live model")
	fs.IntVar(&f.ViewTTL, "view-ttl", 0, "warm reads a materialized view serves before going stale and falling back to live scans until REFRESH (0 = never)")
	fs.IntVar(&f.Countries, "countries", 120, "world size: countries")
	fs.IntVar(&f.Movies, "movies", 200, "world size: movies")
}

// Build renders the flags as what a binary hands to core.Open or
// core.NewEngineGroup: the engine configuration, the synthetic world, the
// simulated model over it, and — when -record is set — the trace the caller
// saves to f.Record on exit (nil otherwise).
func (f *EngineFlags) Build() (cfg core.Config, w *world.World, model llm.Model, record *llm.Trace, err error) {
	cfg = core.DefaultConfig()
	cfg.Temperature = f.Temp
	cfg.Votes = f.Votes
	cfg.BatchSize = f.Batch
	cfg.Parallelism = f.Parallel
	cfg.CacheCapacity = f.Cache
	cfg.CacheDir = f.CacheDir
	cfg.ViewTTLReads = f.ViewTTL
	if cfg.Strategy, err = strategyByName(f.Strategy); err != nil {
		return cfg, nil, nil, nil, err
	}
	noise, err := profileByName(f.Model)
	if err != nil {
		return cfg, nil, nil, nil, err
	}
	switch {
	case f.Record != "" && f.Replay != "":
		return cfg, nil, nil, nil, fmt.Errorf("-record and -replay are mutually exclusive (replaying reaches no live model, so there is nothing to record)")
	case f.Record != "":
		record = llm.NewTrace()
		cfg.RecordTrace = record
	case f.Replay != "":
		if cfg.ReplayTrace, err = llm.LoadTrace(f.Replay); err != nil {
			return cfg, nil, nil, nil, err
		}
	}
	w = world.Generate(world.Config{
		Seed:      f.Seed,
		Countries: f.Countries,
		Movies:    f.Movies,
		Laureates: 100,
		Companies: 100,
	})
	return cfg, w, llm.NewSynthLM(w, noise, f.Seed), record, nil
}

func profileByName(name string) (llm.NoiseProfile, error) {
	switch strings.ToLower(name) {
	case "small":
		return llm.ProfileSmall, nil
	case "medium":
		return llm.ProfileMedium, nil
	case "large":
		return llm.ProfileLarge, nil
	default:
		return llm.NoiseProfile{}, fmt.Errorf("unknown model tier %q (want small, medium or large)", name)
	}
}

func strategyByName(name string) (core.Strategy, error) {
	switch strings.ToLower(name) {
	case "full-table", "full":
		return core.StrategyFullTable, nil
	case "key-then-attr", "kta":
		return core.StrategyKeyThenAttr, nil
	case "paged":
		return core.StrategyPaged, nil
	case "auto":
		return core.StrategyAuto, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", name)
	}
}
