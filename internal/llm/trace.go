package llm

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// A Trace is a set of recorded completions keyed by Fingerprint — the
// checked-in fixture format behind deterministic CI. One trace can hold the
// traffic of many distinct models (the model id is part of every
// fingerprint), so a whole benchmark suite records into a single file.
//
// Recording wraps the base backend and captures every completion that
// actually reaches it; replaying substitutes the base backend entirely,
// answering from the trace and failing loudly on a miss. Replayed responses
// carry the recorded token counts, so CostModel.Bill derives identical
// SimLatency per call and the virtual-time scheduler reproduces Usage —
// calls, tokens, SimWall, dollars — byte-identically on any machine.
type Trace struct {
	mu      sync.RWMutex // replayers only read: concurrent sessions share the lock
	entries map[string]TraceEntry
}

// TraceEntry is one recorded completion. Only the reproducible payload is
// kept: text, exact token counts and the truncation flag.
type TraceEntry struct {
	Model     string `json:"model"`
	Text      string `json:"text"`
	Prompt    int    `json:"pt"`
	Compl     int    `json:"ct"`
	Truncated bool   `json:"tr,omitempty"`
}

// traceFile is the on-disk fixture shape. Version follows
// FingerprintVersion: entries of another version cannot be addressed and a
// load fails fast instead of replaying stale completions.
type traceFile struct {
	Version int                   `json:"version"`
	Entries map[string]TraceEntry `json:"entries"`
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{entries: make(map[string]TraceEntry)}
}

// LoadTrace reads a fixture written by Save.
func LoadTrace(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("llm: trace: %w", err)
	}
	t, err := decodeTrace(data)
	if err != nil {
		return nil, fmt.Errorf("llm: trace %s: %w", path, err)
	}
	return t, nil
}

// decodeTrace parses a fixture's bytes, rejecting any version but
// FingerprintVersion.
func decodeTrace(data []byte) (*Trace, error) {
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	if f.Version != FingerprintVersion {
		return nil, fmt.Errorf("fingerprint version %d, want %d — re-record the fixture", f.Version, FingerprintVersion)
	}
	t := NewTrace()
	for fp, e := range f.Entries {
		t.entries[fp] = e
	}
	return t, nil
}

// Save writes the fixture. Output is deterministic — entries marshal in
// sorted fingerprint order — so re-recording an unchanged workload yields a
// byte-identical file and fixture diffs are reviewable.
func (t *Trace) Save(path string) error {
	t.mu.Lock()
	f := traceFile{Version: FingerprintVersion, Entries: make(map[string]TraceEntry, len(t.entries))}
	for fp, e := range t.entries {
		f.Entries[fp] = e
	}
	t.mu.Unlock()
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Len returns the number of recorded completions.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Record returns a Backend that passes requests through to inner and
// captures every successful completion into the trace. It sits directly
// over the base backend — below any caches — so the trace holds exactly the
// traffic a cache-identical replay run will demand.
func (t *Trace) Record(inner Model) Model { return &recorder{trace: t, inner: inner} }

// Replay returns a Backend answering for the named model entirely from the
// trace. The name must match the recorded model's (fingerprints embed it);
// a request the trace does not contain is an error, never a silent
// fabrication.
func (t *Trace) Replay(name string) Model { return &replayer{trace: t, name: name} }

type recorder struct {
	trace *Trace
	inner Model
}

// Name implements Model.
func (r *recorder) Name() string { return r.inner.Name() }

// Unwrap implements Unwrapper.
func (r *recorder) Unwrap() Model { return r.inner }

// Complete implements Model.
func (r *recorder) Complete(req CompletionRequest) (CompletionResponse, error) {
	resp, err := r.inner.Complete(req)
	if err != nil {
		return resp, err
	}
	fp := Fingerprint(r.inner.Name(), req)
	r.trace.mu.Lock()
	r.trace.entries[fp] = TraceEntry{
		Model:     r.inner.Name(),
		Text:      resp.Text,
		Prompt:    resp.PromptTokens,
		Compl:     resp.CompletionTokens,
		Truncated: resp.Truncated,
	}
	r.trace.mu.Unlock()
	return resp, nil
}

type replayer struct {
	trace *Trace
	name  string
}

// Name implements Model.
func (r *replayer) Name() string { return r.name }

// Complete implements Model.
func (r *replayer) Complete(req CompletionRequest) (CompletionResponse, error) {
	fp := Fingerprint(r.name, req)
	r.trace.mu.RLock()
	e, ok := r.trace.entries[fp]
	r.trace.mu.RUnlock()
	if !ok {
		return CompletionResponse{}, fmt.Errorf(
			"llm: replay miss for model %s (fingerprint %.12s…): the trace does not contain this request — re-record the fixture",
			r.name, fp)
	}
	return CompletionResponse{
		Text:             e.Text,
		PromptTokens:     e.Prompt,
		CompletionTokens: e.Compl,
		Truncated:        e.Truncated,
	}, nil
}
