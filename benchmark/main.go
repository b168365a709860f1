// Command benchmark is llmsql's real-clock serving benchmark: it starts a
// real serve.Server on a unix socket in-process over a core.EngineGroup whose
// base model replays a recorded trace, drives it with real serve.Client
// connections in a closed loop, checks every response, and prints every
// metric by name with its unit. README.md says why each workload exists and
// which end-to-end metric each per-layer row should move.
//
//	bash benchmark/run.sh -workload <name|all> -seed <n> [-seconds n] [-trace 1] [-out file.json] [-trace-out spans.jsonl]
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// runResult is one run of one workload: an untraced run fills EndToEnd, a
// traced run fills PerLayer.
type runResult struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Samples    int     `json:"samples"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FirstError string  `json:"first_error,omitempty"`
	Note       string  `json:"note,omitempty"`
	EndToEnd   metrics `json:"end_to_end,omitempty"`
	PerLayer   metrics `json:"per_layer,omitempty"`
}

// report is the -out file: a set of runs (appended to by repeated
// invocations) and the environment of the first.
type report struct {
	Env  env         `json:"env"`
	Runs []runResult `json:"runs"`
}

type env struct {
	NProc       int    `json:"nproc"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	GOGC        string `json:"gogc"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model,omitempty"`
	Connections int    `json:"connections"`
}

// currentEnv records the settings the load ran under; GOMAXPROCS and GOGC
// are left at their defaults, not set.
func currentEnv() env {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return env{
		NProc:       runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GOGC:        gogc,
		GoVersion:   runtime.Version(),
		Connections: connections,
	}
}

// cpuModel reads the CPU model for a report's environment. It is the one
// read outside the working directory, made only when -out asks for a report.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// appendRuns adds runs to the report at path, creating it (with the current
// environment) when absent.
func appendRuns(path string, runs []runResult) error {
	r, err := loadReport(path)
	if errors.Is(err, fs.ErrNotExist) {
		r, err = &report{Env: currentEnv()}, nil
		r.Env.CPUModel = cpuModel()
	}
	if err != nil {
		return err
	}
	r.Runs = append(r.Runs, runs...)
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRun writes every metric by name with its unit, then — as the last
// line — the driver's result object. error_rate is left out of that object:
// it is 0 on every valid run (the driver wants metrics that are never 0) and
// the same fact is carried by failed/attempted.
func printRun(w io.Writer, r *runResult) error {
	m := r.EndToEnd
	if m == nil {
		m = r.PerLayer
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d: %d samples over %.1f s, %d failed\n", r.Workload, r.Seed, r.Samples, r.Seconds, r.Failed)
	if r.Note != "" {
		fmt.Fprintf(w, "note: %s\n", r.Note)
	}
	if r.FirstError != "" {
		fmt.Fprintf(w, "first error: %s\n", r.FirstError)
	}
	line := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics{}}
	for _, name := range names {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", name, m[name].Value, m[name].Unit)
		if name != "error_rate" {
			line.Metrics[name] = m[name]
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func run(args []string, stdout, stderr io.Writer) error {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "all", "workload name, or all: "+strings.Join(workloadNames, ", "))
	seed := fl.Int64("seed", 1, "seed of the world, parameter values, entity choice and statement order")
	seconds := fl.Int("seconds", 20, "measured window in seconds (a traced run splits it into its passes)")
	trace := fl.Int("trace", 0, "1: the traced run (per-layer metrics) instead of the end-to-end run")
	out := fl.String("out", "", "append the runs to this JSON report")
	traceOut := fl.String("trace-out", "", "with -trace 1: write the spans here as JSON lines")
	compare := fl.Bool("compare", false, "compare two reports: -compare a.json b.json")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fl.NArg() != 2 {
			return errors.New("-compare takes two report files")
		}
		return compareReports(stdout, fl.Arg(0), fl.Arg(1))
	}
	if fl.NArg() != 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("bad arguments %q", args)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	tmp, cleanup, err := tempDir()
	if err != nil {
		return err
	}
	defer cleanup()

	fmt.Fprintf(stdout, "env: %+v\n", currentEnv())
	var runs []runResult
	for _, name := range names {
		window := time.Duration(*seconds) * time.Second
		var r *runResult
		if *trace == 1 {
			window /= 4 // reference pass, pass A, pass B, then the micro rows
			r, err = traced(name, *seed, paperWorld, tmp, warmup(window), window, *traceOut)
		} else {
			r, err = measure(name, *seed, paperWorld, tmp, warmup(window), window)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		runs = append(runs, *r)
		if err := printRun(stdout, r); err != nil {
			return err
		}
	}
	if *out != "" {
		return appendRuns(*out, runs)
	}
	return nil
}

// warmup is the discarded lead-in: 3 s, less on short windows.
func warmup(window time.Duration) time.Duration {
	return min(3*time.Second, window/4)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
