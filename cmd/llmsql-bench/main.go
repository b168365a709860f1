// Command llmsql-bench runs the full experiment suite — every table and
// figure of the reconstructed evaluation, through the Table 11 limit-sweep
// of the streaming scan — and prints the reports in paper order. The
// output of a full-scale run is recorded in EXPERIMENTS.md, and -json
// emits a machine-readable run. Every figure in it is on the virtual clock
// (calls, tokens, dollars, simulated latency), so the output depends only on
// the code and the flags: BENCH_baseline.json is a checked-in -json run, and
// `make bench-check` fails on any byte of difference from it.
//
// Usage:
//
//	llmsql-bench [-seed N] [-scale F] [-only "Table 4,Table 9"] [-json]
//	            [-cache-dir DIR] [-record trace.json | -replay trace.json]
//
// -record captures every completion that reaches an experiment model into a
// trace file; -replay serves the whole suite from such a file instead of
// the live SynthLM — the deterministic playback behind the CI
// replay-determinism gate (testdata/replay/bench_suite.json is the
// checked-in fixture, regenerated with `make replay-fixture`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"llmsql/internal/bench"
	"llmsql/internal/cliflags"
	"llmsql/internal/llm"
)

// jsonRun is the machine-readable output shape of -json.
type jsonRun struct {
	Seed    int64          `json:"seed"`
	Scale   float64        `json:"scale"`
	Reports []bench.Report `json:"reports"`
}

func main() {
	var (
		seed     = flag.Int64("seed", 2024, "world and model seed")
		scale    = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper-style)")
		only     = flag.String("only", "", "run only experiments whose ID contains one of these comma-separated substrings")
		asJSON   = flag.Bool("json", false, "emit the reports as JSON (for BENCH_baseline.json-style records)")
		cacheDir = flag.String("cache-dir", "", "persistent prompt-cache directory shared by the experiment engines (empty = off)")
		record   = flag.String("record", "", "record every live completion of the run into this trace file (replay fixture)")
		replay   = flag.String("replay", "", "serve the whole run from this trace file instead of live models")

		printFlags = flag.Bool("print-flags", false, "print the flag reference as a markdown table and exit (consumed by make docs-check)")
	)
	var faults cliflags.FaultFlags
	faults.Register(flag.CommandLine)
	flag.Parse()

	if *printFlags {
		fmt.Print(cliflags.Markdown(flag.CommandLine))
		return
	}

	if *record != "" && *replay != "" {
		fmt.Fprintln(os.Stderr, "llmsql-bench: -record and -replay are mutually exclusive (replaying reaches no live model, so there is nothing to record)")
		os.Exit(1)
	}
	if *cacheDir != "" {
		// Fail with a clean message now rather than a panic from the first
		// experiment's engine.
		if err := llm.CheckCacheDir(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "llmsql-bench:", err)
			os.Exit(1)
		}
	}
	opts := bench.Options{
		Seed:           *seed,
		Scale:          *scale,
		CacheDir:       *cacheDir,
		Chaos:          faults.Chaos(),
		Retry:          faults.Retry(),
		PartialResults: faults.PartialResults,
	}
	if *record != "" {
		opts.Record = llm.NewTrace()
	}
	if *replay != "" {
		trace, err := llm.LoadTrace(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "llmsql-bench:", err)
			os.Exit(1)
		}
		opts.Replay = trace
	}
	start := time.Now()
	reports, err := bench.RunOnly(opts, *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "llmsql-bench:", err)
		os.Exit(1)
	}
	if *record != "" {
		if err := opts.Record.Save(*record); err != nil {
			fmt.Fprintln(os.Stderr, "llmsql-bench: save trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "recorded %d completions to %s\n", opts.Record.Len(), *record)
	}
	kept := reports
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonRun{Seed: *seed, Scale: *scale, Reports: kept}); err != nil {
			fmt.Fprintln(os.Stderr, "llmsql-bench:", err)
			os.Exit(1)
		}
		return
	}
	for _, r := range kept {
		fmt.Println(r.String())
	}
	fmt.Printf("— %d experiments in %v (seed %d, scale %.2f)\n", len(kept), time.Since(start).Round(time.Millisecond), *seed, *scale)
}
