package llm

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTraceRecordReplayRoundTrip(t *testing.T) {
	inner := &echoModel{}
	trace := NewTrace()
	rec := trace.Record(inner)
	reqs := []CompletionRequest{
		{Prompt: "alpha", Seed: 1},
		{Prompt: "alpha", Seed: 2},
		{Prompt: "beta", Temperature: 0.7, MaxTokens: 32},
	}
	want := make([]CompletionResponse, len(reqs))
	for i, req := range reqs {
		r, err := rec.Complete(req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	if trace.Len() != len(reqs) {
		t.Fatalf("trace length: %d", trace.Len())
	}

	rep := trace.Replay(inner.Name())
	for i, req := range reqs {
		r, err := rep.Complete(req)
		if err != nil {
			t.Fatal(err)
		}
		if r.Text != want[i].Text || r.PromptTokens != want[i].PromptTokens ||
			r.CompletionTokens != want[i].CompletionTokens || r.Truncated != want[i].Truncated {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, r, want[i])
		}
	}
	// A request outside the trace fails loudly instead of fabricating.
	if _, err := rep.Complete(CompletionRequest{Prompt: "never recorded"}); err == nil ||
		!strings.Contains(err.Error(), "replay miss") {
		t.Fatalf("miss error: %v", err)
	}
	// So does the right request against the wrong model identity.
	if _, err := trace.Replay("other-model").Complete(reqs[0]); err == nil {
		t.Fatal("wrong model name must miss")
	}
}

func TestTraceSaveIsDeterministic(t *testing.T) {
	inner := &echoModel{}
	trace := NewTrace()
	rec := trace.Record(inner)
	for _, p := range []string{"zulu", "alpha", "mike"} {
		if _, err := rec.Complete(CompletionRequest{Prompt: p}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.json")
	p2 := filepath.Join(dir, "b.json")
	if err := trace.Save(p1); err != nil {
		t.Fatal(err)
	}
	if err := trace.Save(p2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if string(b1) != string(b2) {
		t.Fatal("save is not byte-deterministic")
	}

	loaded, err := LoadTrace(p1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != trace.Len() {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), trace.Len())
	}
	r, err := loaded.Replay(inner.Name()).Complete(CompletionRequest{Prompt: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.Text, "echo:") {
		t.Fatalf("loaded replay: %+v", r)
	}
}

func TestLoadTraceRejectsVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"version":0,"entries":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrace(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch must fail: %v", err)
	}
}

// FuzzLoadTrace: no fixture bytes panic the decoder, a fixture of another
// fingerprint version is refused, and whatever is accepted round-trips
// through Save and LoadTrace with the same entries.
func FuzzLoadTrace(f *testing.F) {
	fp := Fingerprint("echo", CompletionRequest{Prompt: "alpha"})
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"entries":{%q:{"model":"echo","text":"a | b","pt":3,"ct":2,"tr":true}}}`, FingerprintVersion, fp)))
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"entries":{}}`, FingerprintVersion)))
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"entries":null}`, FingerprintVersion)))
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"entries":{}}`, FingerprintVersion+1)))
	f.Add([]byte(`{"version":0}`))
	f.Add([]byte(`{"version":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decodeTrace(data)
		if err != nil {
			return
		}
		var v struct{ Version int }
		if err := json.Unmarshal(data, &v); err != nil || v.Version != FingerprintVersion {
			t.Fatalf("accepted a fixture of version %d (%v), want %d", v.Version, err, FingerprintVersion)
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := tr.Save(path); err != nil {
			t.Fatal(err)
		}
		back, err := LoadTrace(path)
		if err != nil {
			t.Fatalf("reloading a saved trace: %v", err)
		}
		if !maps.Equal(tr.entries, back.entries) {
			t.Fatalf("round trip changed the entries:\n%v\n%v", tr.entries, back.entries)
		}
	})
}
