package core

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"llmsql/internal/llm"
)

// stackLine is one layer line of the list in llm/backend.go's comment.
type stackLine struct {
	types     []string // alternatives, e.g. recorder | replayer
	fields    []string // the Config fields that add it, aligned with types; none = always
	group     bool     // marked "(group)"
	belowFork bool
}

var (
	stackLineRE   = regexp.MustCompile(`^//\t([A-Za-z]+(?: \| [A-Za-z]+)*) {2,}(.*)$`)
	configFieldRE = regexp.MustCompile(`Config\.([A-Za-z]+)`)
)

// documentedStack parses the stack list out of package llm's comment.
func documentedStack(t *testing.T) []stackLine {
	t.Helper()
	src, err := os.ReadFile("../llm/backend.go")
	if err != nil {
		t.Fatal(err)
	}
	var lines []stackLine
	belowFork := false
	for _, l := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(l, "//\t----") {
			belowFork = true
			continue
		}
		m := stackLineRE.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		sl := stackLine{types: strings.Split(m[1], " | "), group: strings.Contains(m[2], "(group)"), belowFork: belowFork}
		for _, f := range configFieldRE.FindAllStringSubmatch(m[2], -1) {
			sl.fields = append(sl.fields, f[1])
		}
		lines = append(lines, sl)
	}
	if len(lines) != 8 || !belowFork {
		t.Fatalf("parsed %d stack lines (fork seen: %v) from llm/backend.go, want 8: %+v", len(lines), belowFork, lines)
	}
	return lines
}

// chainTypes walks Unwrap from m and names each layer's type.
func chainTypes(m llm.Model) []string {
	var out []string
	for m != nil {
		out = append(out, strings.TrimPrefix(fmt.Sprintf("%T", m), "*llm."))
		uw, ok := m.(llm.Unwrapper)
		if !ok {
			break
		}
		m = uw.Unwrap()
	}
	return out
}

// TestStackOrder compares the layer chains the one builder produces — for a
// solo engine, a group and a session, under each stack-shaping option — with
// the order documented in llm/backend.go. Two assemblies used to build these
// chains separately; this is what keeps one from becoming two again.
func TestStackOrder(t *testing.T) {
	doc := documentedStack(t)
	w := parWorld()
	options := []struct {
		name string
		set  func(*Config, *testing.T)
	}{
		{"none", func(*Config, *testing.T) {}},
		{"CacheCapacity", func(c *Config, _ *testing.T) { c.CacheCapacity = 16 }},
		{"CacheDir", func(c *Config, t *testing.T) { c.CacheDir = t.TempDir() }},
		{"Chaos", func(c *Config, _ *testing.T) { c.Chaos = llm.ChaosProfile{Seed: 1, TransientRate: 0.1} }},
		{"RecordTrace", func(c *Config, _ *testing.T) { c.RecordTrace = llm.NewTrace() }},
		{"ReplayTrace", func(c *Config, _ *testing.T) { c.ReplayTrace = llm.NewTrace() }},
	}
	for _, opt := range options {
		cfg := DefaultConfig()
		opt.set(&cfg, t)
		set := func(field string) bool { return !reflect.ValueOf(cfg).FieldByName(field).IsZero() }
		// want lists the documented layers present under cfg: every layer
		// for an engine, only those below the fork for a group's own stack.
		want := func(group, fromTop bool) []string {
			var out []string
			for _, l := range doc {
				if (l.group && !group) || (!l.belowFork && !fromTop) {
					continue
				}
				if len(l.fields) == 0 {
					out = append(out, l.types[0])
				}
				for i, f := range l.fields {
					if set(f) {
						out = append(out, l.types[i])
					}
				}
			}
			if cfg.ReplayTrace != nil {
				out = out[:len(out)-1] // a replayer stands in for the base model
			}
			return out
		}

		solo, err := Open(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := chainTypes(solo.store.model), want(false, true); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: solo engine stack\n got %v\nwant %v", opt.name, got, want)
		}
		solo.Close()

		opt.set(&cfg, t) // a fresh cache directory for the group
		g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := chainTypes(g.backend.top), want(true, false); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: group stack\n got %v\nwant %v", opt.name, got, want)
		}
		if got, want := chainTypes(g.Session().store.model), want(true, true); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: session stack\n got %v\nwant %v", opt.name, got, want)
		}
		g.Close()
	}
}
