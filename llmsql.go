// Package llmsql is the public facade of the LLM-as-storage SQL engine: a
// query processor that executes ordinary SQL against virtual tables whose
// tuples are retrieved by prompting a large language model, with classical
// relational operators (joins, aggregation, ordering) running on top.
//
// Quick start:
//
//	w := llmsql.GenerateWorld(llmsql.WorldConfig{Seed: 1})
//	model := llmsql.NewSynthLM(w, llmsql.ProfileMedium, 1)
//	eng := llmsql.New(model, llmsql.DefaultConfig())
//	for _, name := range w.DomainNames() {
//		eng.RegisterWorldDomain(w.Domain(name))
//	}
//	res, err := eng.Query(`SELECT name, capital FROM country WHERE population > 50`)
//
// Scans can fan out across a bounded worker pool (Config.Parallelism) and
// be fronted by a bounded LRU completion cache (Config.CacheCapacity);
// result rows are byte-identical to the serial path (merge order is
// deterministic, and speculatively prefetched rounds the convergence rule
// discards are paid for in Usage but never parsed — see Config.Parallelism
// for the fine print on stats), and QueryResult.Usage reports both total
// accumulated and critical-path simulated latency.
//
// StrategyAuto prices every prompt decomposition per table under a
// token/latency/$ cost model and runs the cheapest (EXPLAIN shows the
// breakdown), and Config.BatchSize groups keys into batched ATTR prompts
// on the key-then-attr path — ~BatchSize fewer calls at identical key sets
// and row order. Joins are cost-planned too: Config.BindJoin lets the
// engine drain the cheap join side and push its distinct key values into
// the other side's scan (a bind join), so only keys the join can use pay
// the attribute fan-out — byte-identical rows to the hash plan at a
// fraction of the calls when the outer side is selective.
//
// Queries take parameters ($1, ? or :name bound via NamedArgs) as trailing
// Query arguments, and Engine.Prepare returns a Stmt that parses and plans
// once for repeated execution; unprepared queries are amortized the same
// way by a per-engine plan cache keyed on normalized statement text
// (Config.PlanCacheCapacity, Engine.PlanCacheStats). EXPLAIN and EXPLAIN
// ANALYZE work as ordinary statements.
//
// The facade re-exports the stable surface of the internal packages; see
// README.md for an overview, DESIGN.md for the architecture and
// EXPERIMENTS.md for the reproduced evaluation.
package llmsql

import (
	"llmsql/internal/core"
	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/rel"
	"llmsql/internal/storage"
	"llmsql/internal/world"
)

// ---- engine ----

// Engine executes SQL over LLM storage. See core.Engine.
type Engine = core.Engine

// Config tunes the engine. See core.Config.
type Config = core.Config

// Strategy selects the prompt decomposition. See core.Strategy.
type Strategy = core.Strategy

// Prompt strategies. StrategyAuto defers the choice to the cost-based scan
// planner, which prices the other three per table and runs the cheapest.
const (
	StrategyFullTable   = core.StrategyFullTable
	StrategyKeyThenAttr = core.StrategyKeyThenAttr
	StrategyPaged       = core.StrategyPaged
	StrategyAuto        = core.StrategyAuto
)

// VirtualTable declares an LLM-backed relation. See core.VirtualTable.
type VirtualTable = core.VirtualTable

// QueryResult bundles rows with the execution report. See core.QueryResult.
type QueryResult = core.QueryResult

// Stmt is a prepared statement: parsed and planned once, executed many
// times with different parameter bindings via Engine.Prepare. See core.Stmt.
type Stmt = core.Stmt

// NamedArgs binds :name parameters by name; pass one as the sole argument
// of Query/Stmt.Query. See core.NamedArgs.
type NamedArgs = core.NamedArgs

// PlanCacheStats reports the engine's prepared-plan cache counters. See
// core.PlanCacheStats.
type PlanCacheStats = core.PlanCacheStats

// DefaultPlanCacheCapacity is the prepared-plan cache bound selected by
// Config.PlanCacheCapacity == 0.
const DefaultPlanCacheCapacity = core.DefaultPlanCacheCapacity

// New builds an engine over any Model. It panics when Config.CacheDir
// names a directory that cannot be opened; prefer Open for runtime-chosen
// cache directories.
func New(model Model, cfg Config) *Engine { return core.New(model, cfg) }

// Open builds an engine over any Model, assembling the configured backend
// stack (in-memory cache, persistent disk cache, record/replay trace) with
// an error path. See core.Open.
func Open(model Model, cfg Config) (*Engine, error) { return core.Open(model, cfg) }

// DefaultConfig returns the paper-style engine configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// FormatResult renders a result as an aligned text table.
func FormatResult(res *Result) string { return core.FormatResult(res) }

// ---- serving ----

// EngineGroup is the multi-session serving form of the engine: many
// Session() engines over one shared coalescing backend stack, so identical
// scans across sessions cost one live model fan-out while every session is
// billed exactly as if it ran solo. cmd/llmsql-serve builds one per server.
// See core.EngineGroup.
type EngineGroup = core.EngineGroup

// GroupStats is the operator-side view of a serving group: billed vs live
// usage and the coalescer's counters. See core.GroupStats.
type GroupStats = core.GroupStats

// NewEngineGroup assembles the shared serving stack over the model, with the
// same builder Open uses; the configuration's CacheDir, CacheMaxBytes,
// RecordTrace, ReplayTrace, Chaos and Retry configure the shared layers, the
// rest stays per-session. Every Session() engine reads
// the shared layers through the group (its DiskCacheStats, REFRESH probe and
// InvalidateCachedCompletions reach the group's disk cache); closing a
// session leaves them open. The sessions also share one catalog: a table
// registered, a local store attached or a local write through the group or
// any session is every session's. See core.NewEngineGroup.
func NewEngineGroup(model Model, cfg Config) (*EngineGroup, error) {
	return core.NewEngineGroup(model, cfg)
}

// Coalescer merges concurrent and (via its bounded memo) consecutive
// identical completion requests into one inner call, preserving the
// original response's cache flags and billing. See llm.Coalescer.
type Coalescer = llm.Coalescer

// CoalescerStats reports request-coalescing effectiveness. See
// llm.CoalescerStats.
type CoalescerStats = llm.CoalescerStats

// NewCoalescer wraps a model with a request coalescer using the default
// memo capacity. EngineGroup manages its own; this wrapper is for
// standalone model stacks.
func NewCoalescer(m Model) *Coalescer { return llm.NewCoalescer(m) }

// NewCoalescerSized wraps a model with a request coalescer whose
// completed-results memo holds capacity entries (0 selects the default,
// negative disables the memo, keeping in-flight coalescing only).
func NewCoalescerSized(m Model, capacity int) *Coalescer { return llm.NewCoalescerSized(m, capacity) }

// ---- results and values ----

// Result is a materialized query result. See exec.Result.
type Result = exec.Result

// Value is a typed SQL value. See rel.Value.
type Value = rel.Value

// Row is a tuple of values. See rel.Row.
type Row = rel.Row

// Schema describes a relation. See rel.Schema.
type Schema = rel.Schema

// Column describes one attribute. See rel.Column.
type Column = rel.Column

// DataType enumerates column types. See rel.DataType.
type DataType = rel.DataType

// Column data types.
const (
	TypeBool  = rel.TypeBool
	TypeInt   = rel.TypeInt
	TypeFloat = rel.TypeFloat
	TypeText  = rel.TypeText
)

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return rel.NewSchema(cols...) }

// Value constructors for building rows programmatically (local tables,
// test fixtures).
var (
	// Int returns an INT value.
	Int = rel.Int
	// Float returns a FLOAT value.
	Float = rel.Float
	// Text returns a TEXT value.
	Text = rel.Text
	// Bool returns a BOOL value.
	Bool = rel.Bool
	// Null returns the SQL NULL value.
	Null = rel.Null
)

// ---- models ----

// Model is anything that completes prompts. See llm.Model.
type Model = llm.Model

// Backend is a pluggable completion provider — the same contract as Model,
// under the name used for the storage side of the stack. See llm.Backend.
type Backend = llm.Backend

// NoiseProfile controls the simulated model's reliability. See
// llm.NoiseProfile.
type NoiseProfile = llm.NoiseProfile

// Simulated model tiers.
var (
	ProfileLarge  = llm.ProfileLarge
	ProfileMedium = llm.ProfileMedium
	ProfileSmall  = llm.ProfileSmall
)

// Usage accumulates model consumption, including total accumulated
// (SimLatency) and critical-path (SimWall) simulated latency. See
// llm.Usage.
type Usage = llm.Usage

// CostModel converts token usage into simulated latency and dollars. See
// llm.CostModel.
type CostModel = llm.CostModel

// DefaultCostModel returns the benchmark harness's cost constants.
func DefaultCostModel() CostModel { return llm.DefaultCostModel() }

// CacheModel is a bounded LRU completion cache wrapper. See llm.CacheModel.
type CacheModel = llm.CacheModel

// CacheStats reports completion-cache effectiveness. See llm.CacheStats.
type CacheStats = llm.CacheStats

// NewCache wraps a model with an LRU completion cache of the default
// capacity. Engines configured with Config.CacheCapacity manage their own
// cache; this wrapper is for standalone model stacks.
func NewCache(m Model) *CacheModel { return llm.NewCache(m) }

// NewCacheSized wraps a model with an LRU completion cache bounded to
// capacity entries (values < 1 select the default capacity).
func NewCacheSized(m Model, capacity int) *CacheModel { return llm.NewCacheSized(m, capacity) }

// DiskCache is the persistent content-addressed prompt cache. Engines
// configured with Config.CacheDir manage their own; this wrapper is for
// standalone model stacks. See llm.DiskCache.
type DiskCache = llm.DiskCache

// DiskCacheStats reports the persistent cache's counters and occupancy.
// See llm.DiskCacheStats.
type DiskCacheStats = llm.DiskCacheStats

// NewDiskCache opens (creating if needed) a persistent prompt cache at dir
// over m, LRU-bounded to maxBytes live bytes (values < 1 select the
// default).
func NewDiskCache(m Model, dir string, maxBytes int64) (*DiskCache, error) {
	return llm.NewDiskCache(m, dir, maxBytes)
}

// Trace is a recorded set of completions keyed by content fingerprint —
// the record/replay fixture behind deterministic testing. See llm.Trace.
type Trace = llm.Trace

// NewTrace returns an empty trace (record into it via Config.RecordTrace).
func NewTrace() *Trace { return llm.NewTrace() }

// LoadTrace reads a trace fixture written by Trace.Save.
func LoadTrace(path string) (*Trace, error) { return llm.LoadTrace(path) }

// Fingerprint returns the versioned content address of one completion
// request against a named model — the key the persistent cache and traces
// share. See llm.Fingerprint.
var Fingerprint = llm.Fingerprint

// NewSynthLM builds the deterministic simulated LLM over a world.
func NewSynthLM(w *World, profile NoiseProfile, seed int64) *llm.SynthLM {
	return llm.NewSynthLM(w, profile, seed)
}

// ---- synthetic world & local storage ----

// World is the synthetic universe. See world.World.
type World = world.World

// WorldConfig sizes the world. See world.Config.
type WorldConfig = world.Config

// GenerateWorld builds a world from the configuration.
func GenerateWorld(cfg WorldConfig) *World { return world.Generate(cfg) }

// LoadWorldDB materializes the ground truth into a row store.
func LoadWorldDB(w *World) (*DB, error) { return world.LoadDB(w) }

// DB is the in-memory row store. See storage.DB.
type DB = storage.DB

// NewDB returns an empty row store (for hybrid queries and baselines).
func NewDB() *DB { return storage.NewDB() }
