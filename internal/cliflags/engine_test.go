package cliflags

import (
	"flag"
	"os/exec"
	"strings"
	"testing"
)

// engineDefaults pins the name and default of every shared engine flag:
// command lines and README recipes in the wild depend on both.
var engineDefaults = map[string]string{
	"seed": "2024", "model": "medium", "strategy": "full-table", "temp": "0.7",
	"votes": "1", "batch": "1", "parallel": "1", "cache": "0",
	"cache-dir": "", "record": "", "replay": "",
	"view-ttl": "0", "countries": "120", "movies": "200",
}

// rowsByFlag splits a Markdown flag table into its rows, keyed by flag name.
func rowsByFlag(table string) map[string]string {
	rows := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `-"); ok {
			name, _, _ := strings.Cut(rest, "`")
			rows[name] = line
		}
	}
	return rows
}

// TestEngineFlagsRenderIdenticallyOnBothBinaries: llmsql and llmsql-serve
// must document each shared engine flag with the very row EngineFlags
// renders, under the pinned name and default.
func TestEngineFlagsRenderIdenticallyOnBothBinaries(t *testing.T) {
	fs := flag.NewFlagSet("engine", flag.ContinueOnError)
	new(EngineFlags).Register(fs)
	want := rowsByFlag(Markdown(fs))
	if len(want) != len(engineDefaults) {
		t.Fatalf("EngineFlags registers %d flags, want %d", len(want), len(engineDefaults))
	}
	for name, def := range engineDefaults {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("flag -%s is gone", name)
		}
		if f.DefValue != def {
			t.Errorf("-%s defaults to %q, want %q", name, f.DefValue, def)
		}
	}

	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH to run the binaries with")
	}
	for _, bin := range []string{"llmsql", "llmsql-serve"} {
		out, err := exec.Command("go", "run", "llmsql/cmd/"+bin, "-print-flags").Output()
		if err != nil {
			t.Fatalf("%s -print-flags: %v", bin, err)
		}
		got := rowsByFlag(string(out))
		for name, row := range want {
			if got[name] != row {
				t.Errorf("%s documents -%s as\n%s\nwant\n%s", bin, name, got[name], row)
			}
		}
	}
}

func TestEngineFlagsBuild(t *testing.T) {
	fs := flag.NewFlagSet("engine", flag.ContinueOnError)
	var f EngineFlags
	f.Register(fs)
	if err := fs.Parse([]string{"-strategy", "kta", "-model", "large", "-countries", "5", "-movies", "5", "-record", "out.json"}); err != nil {
		t.Fatal(err)
	}
	cfg, w, model, record, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Strategy.String() != "key-then-attr" || cfg.RecordTrace != record || record == nil || cfg.ReplayTrace != nil {
		t.Fatalf("config: strategy %v record %p/%p replay %p", cfg.Strategy, cfg.RecordTrace, record, cfg.ReplayTrace)
	}
	if n := len(w.Domain("country").Entities); n != 5 || model.Name() == "" {
		t.Fatalf("world has %d countries, model %q", n, model.Name())
	}

	for _, bad := range [][]string{
		{"-record", "a.json", "-replay", "b.json"},
		{"-strategy", "nope"},
		{"-model", "huge"},
		{"-replay", "/nonexistent/trace.json"},
	} {
		fs := flag.NewFlagSet("engine", flag.ContinueOnError)
		var f EngineFlags
		f.Register(fs)
		if err := fs.Parse(bad); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := f.Build(); err == nil {
			t.Errorf("%v: Build accepted it", bad)
		}
	}
}
