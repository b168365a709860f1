package llm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func mustDiskCache(t *testing.T, inner Model, dir string, maxBytes int64) *DiskCache {
	t.Helper()
	c, err := NewDiskCache(inner, dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDiskCacheHitAndPersistence(t *testing.T) {
	dir := t.TempDir()
	inner := &echoModel{}
	c := mustDiskCache(t, inner, dir, 0)
	req := CompletionRequest{Prompt: "capital of France", Seed: 3}

	r1, err := c.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.DiskCached {
		t.Fatalf("first response must be a miss: %+v", r1)
	}
	r2, err := c.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || !r2.DiskCached || r2.DiskBytes <= 0 {
		t.Fatalf("second response must be a disk hit: %+v", r2)
	}
	if r2.Text != r1.Text || r2.PromptTokens != r1.PromptTokens || r2.CompletionTokens != r1.CompletionTokens {
		t.Fatalf("cache changed the completion: %+v vs %+v", r1, r2)
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls: %d", inner.calls)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process (new cache instance, new inner) is served from disk.
	inner2 := &echoModel{}
	c2 := mustDiskCache(t, inner2, dir, 0)
	r3, err := c2.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.DiskCached || r3.Text != r1.Text {
		t.Fatalf("reopened cache must hit: %+v", r3)
	}
	if inner2.calls != 0 {
		t.Fatalf("inner called after reopen: %d", inner2.calls)
	}
	// Decode-parameter changes are different fingerprints.
	if r, _ := c2.Complete(CompletionRequest{Prompt: "capital of France", Seed: 4}); r.DiskCached {
		t.Fatal("different seed must miss")
	}
	if inner2.calls != 1 {
		t.Fatalf("inner calls after seed change: %d", inner2.calls)
	}
}

func TestDiskCacheContainsIsAPureProbe(t *testing.T) {
	c := mustDiskCache(t, &echoModel{}, t.TempDir(), 0)
	req := CompletionRequest{Prompt: "probe me"}
	if c.Contains(req) {
		t.Fatal("empty cache contains nothing")
	}
	if _, err := c.Complete(req); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if !c.Contains(req) {
		t.Fatal("persisted request must be contained")
	}
	after := c.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("probe touched the counters: %+v vs %+v", before, after)
	}
}

func TestDiskCacheFingerprintVersioning(t *testing.T) {
	req := CompletionRequest{Prompt: "p", MaxTokens: 9, Temperature: 0.5, Seed: 2}
	if fingerprintAt(1, "m", req) == fingerprintAt(2, "m", req) {
		t.Fatal("fingerprints must differ across versions")
	}
	if Fingerprint("m", req) == Fingerprint("m2", req) {
		t.Fatal("fingerprints must differ across models")
	}

	// Entries persisted at one version are invalidated by a bump: the next
	// open at a newer version skips them wholesale.
	dir := t.TempDir()
	inner := &echoModel{}
	old, err := newDiskCacheAt(inner, dir, 0, FingerprintVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Complete(req); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	bumped, err := newDiskCacheAt(&echoModel{}, dir, 0, FingerprintVersion+1)
	if err != nil {
		t.Fatal(err)
	}
	defer bumped.Close()
	if s := bumped.Stats(); s.Entries != 0 {
		t.Fatalf("old-version entries survived the bump: %+v", s)
	}
	if bumped.Contains(req) {
		t.Fatal("old-version record must not be addressable")
	}
	// Same-version reopen keeps them.
	same, err := newDiskCacheAt(&echoModel{}, dir, 0, FingerprintVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer same.Close()
	if s := same.Stats(); s.Entries != 1 {
		t.Fatalf("same-version entries lost: %+v", s)
	}
}

func TestDiskCacheLRUByteBound(t *testing.T) {
	inner := &echoModel{}
	c := mustDiskCache(t, inner, t.TempDir(), 2048)
	for i := 0; i < 100; i++ {
		if _, err := c.Complete(CompletionRequest{Prompt: fmt.Sprintf("prompt number %d padding padding", i)}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.LiveBytes > s.MaxBytes {
		t.Fatalf("live bytes exceed the bound: %+v", s)
	}
	if s.Evictions == 0 {
		t.Fatalf("pressure must evict: %+v", s)
	}
	if s.Entries == 0 {
		t.Fatalf("eviction emptied the cache: %+v", s)
	}
	// MRU retained, LRU gone.
	if !c.Contains(CompletionRequest{Prompt: "prompt number 99 padding padding"}) {
		t.Fatal("most recent entry evicted")
	}
	if c.Contains(CompletionRequest{Prompt: "prompt number 0 padding padding"}) {
		t.Fatal("least recent entry survived")
	}
}

// bigModel answers with a fixed large completion so byte-bound pressure and
// compaction thresholds are reached in few calls.
type bigModel struct{ size int }

func (b *bigModel) Name() string { return "big" }
func (b *bigModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	return CompletionResponse{Text: strings.Repeat("x", b.size), PromptTokens: 2, CompletionTokens: b.size / 4}, nil
}

func TestDiskCacheCompaction(t *testing.T) {
	dir := t.TempDir()
	c := mustDiskCache(t, &bigModel{size: 64 << 10}, dir, 128<<10)
	// Each record is ~64 KiB; a 128 KiB bound keeps ~2 live, so dozens of
	// inserts push dead bytes past both the floor and the live volume.
	for i := 0; i < 40; i++ {
		if _, err := c.Complete(CompletionRequest{Prompt: fmt.Sprintf("big %d", i), Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Compactions == 0 {
		t.Fatalf("dead bytes never compacted: %+v", s)
	}
	if s.DeadBytes > s.LiveBytes+compactionFloor {
		t.Fatalf("compaction left too much garbage: %+v", s)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted cache reloads to the same live set.
	c2 := mustDiskCache(t, &bigModel{size: 64 << 10}, dir, 128<<10)
	if got := c2.Stats().Entries; got != s.Entries {
		t.Fatalf("reload after compaction: %d entries, want %d", got, s.Entries)
	}
	if !c2.Contains(CompletionRequest{Prompt: "big 39", Seed: 39}) {
		t.Fatal("most recent entry lost in compaction")
	}
}

func TestDiskCacheConcurrentAccountingConsistent(t *testing.T) {
	c := mustDiskCache(t, &echoModel{}, t.TempDir(), 0)
	const goroutines, rounds, keys = 8, 40, 13
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req := CompletionRequest{Prompt: fmt.Sprintf("k%d", (g+i)%keys)}
				if _, err := c.Complete(req); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != goroutines*rounds {
		t.Fatalf("lookup accounting drifted: %+v (want %d lookups)", s, goroutines*rounds)
	}
	if s.Entries != keys {
		t.Fatalf("entries: %+v (want %d)", s, keys)
	}
	if got := chainLen(c.entries); got != c.entries.Len() {
		t.Fatalf("map/list out of sync: %d vs %d", c.entries.Len(), got)
	}
}

func TestFindDiskCache(t *testing.T) {
	inner := &echoModel{}
	dc := mustDiskCache(t, inner, t.TempDir(), 0)
	if FindDiskCache(NewCounting(NewCache(dc))) != dc {
		t.Fatal("disk cache inside the stack not found")
	}
	if FindDiskCache(NewCounting(inner)) != nil {
		t.Fatal("found a disk cache where there is none")
	}
}

// TestDiskCacheCrashRecovery simulates a crash mid-append: the active
// segment ends in a torn half-record, with stray garbage bytes behind it.
// A reopen must not error or panic, must keep every intact record with
// the last record per fingerprint winning, and must lose exactly the torn
// tail — the "at most one record" crash contract the type documents.
func TestDiskCacheCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	reqA := CompletionRequest{Prompt: "alpha"}
	reqB := CompletionRequest{Prompt: "beta"}
	reqC := CompletionRequest{Prompt: "gamma"}
	reqD := CompletionRequest{Prompt: "delta"}

	c := mustDiskCache(t, &echoModel{}, dir, 0)
	for _, req := range []CompletionRequest{reqA, reqB, reqC} {
		if _, err := c.Complete(req); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite A's record (a later, different completion for the same
	// fingerprint) and persist D — the record the crash will tear.
	fpA := Fingerprint(c.Name(), reqA)
	c.put(fpA, CompletionResponse{Text: "alpha-overridden", PromptTokens: 9, CompletionTokens: 9})
	if _, err := c.Complete(reqD); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := c.segments()
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear D's record (the final line) in half, then scribble garbage
	// after it — a crash racing a concurrent write.
	body := data[:len(data)-1] // drop the final newline
	cut := bytes.LastIndexByte(body, '\n') + 1 + 12
	if cut >= len(body) {
		t.Fatalf("segment too small to tear: %d bytes", len(body))
	}
	torn := append([]byte{}, data[:cut]...)
	torn = append(torn, []byte("\x00\xfe{]garbage not json\n{\"fp\": tr")...)
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	inner := &echoModel{}
	c2 := mustDiskCache(t, inner, dir, 0)
	// Intact records survive; the override is what A answers with.
	rA, err := c2.Complete(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if !rA.DiskCached || rA.Text != "alpha-overridden" {
		t.Fatalf("last record must win after recovery: %+v", rA)
	}
	for _, req := range []CompletionRequest{reqB, reqC} {
		r, err := c2.Complete(req)
		if err != nil {
			t.Fatal(err)
		}
		if !r.DiskCached {
			t.Fatalf("intact record lost in recovery: %+v", r)
		}
	}
	if inner.calls != 0 {
		t.Fatalf("recovery reached the backend for intact records: %d calls", inner.calls)
	}
	// The torn record is gone — D misses and is re-completed live.
	rD, err := c2.Complete(reqD)
	if err != nil {
		t.Fatal(err)
	}
	if rD.DiskCached {
		t.Fatal("torn record must be dropped, not resurrected")
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls after the torn-record miss: %d", inner.calls)
	}
	if s := c2.Stats(); s.DeadBytes == 0 {
		t.Fatalf("torn tail and garbage must be accounted dead: %+v", s)
	}
	// The reopened cache keeps appending normally after recovery.
	if _, err := c2.Complete(CompletionRequest{Prompt: "epsilon"}); err != nil {
		t.Fatal(err)
	}
	if r, err := c2.Complete(CompletionRequest{Prompt: "epsilon"}); err != nil || !r.DiskCached {
		t.Fatalf("post-recovery write path broken: %+v %v", r, err)
	}
}

// TestDiskCacheOversizeRecord: a completion whose record would exceed
// maxRecordBytes is still returned but not persisted (counted in
// WriteErrors), so the directory always reopens.
func TestDiskCacheOversizeRecord(t *testing.T) {
	dir := t.TempDir()
	big := &bigModel{size: 2 << 20}
	c := mustDiskCache(t, big, dir, 0)
	req := CompletionRequest{Prompt: "huge"}
	r, err := c.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Text) != big.size {
		t.Fatalf("oversize completion came back with %d bytes, want %d", len(r.Text), big.size)
	}
	if s := c.Stats(); s.WriteErrors != 1 || s.Entries != 0 {
		t.Fatalf("oversize record: %+v, want 1 write error and no entry", s)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := mustDiskCache(t, big, dir, 0)
	if c2.Contains(req) {
		t.Fatal("oversize record reloaded")
	}
}

// TestDiskCacheLoadSkipsOverlongLine: a segment line over maxRecordBytes —
// written by an older build, or by anything else — is dead bytes, and the
// records after it load normally.
func TestDiskCacheLoadSkipsOverlongLine(t *testing.T) {
	dir := t.TempDir()
	req := CompletionRequest{Prompt: "after the long line"}
	rec, err := json.Marshal(diskRecord{FP: Fingerprint("echo", req), Version: FingerprintVersion, Text: "kept", Prompt: 3, Compl: 1})
	if err != nil {
		t.Fatal(err)
	}
	long := append(bytes.Repeat([]byte("x"), 3*maxRecordBytes/2), '\n')
	seg := append(long, append(rec, '\n')...)
	if err := os.WriteFile(filepath.Join(dir, "seg-000000.jsonl"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	inner := &echoModel{}
	c := mustDiskCache(t, inner, dir, 0)
	r, err := c.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r.DiskCached || r.Text != "kept" || inner.calls != 0 {
		t.Fatalf("record after the over-long line not live: %+v (%d inner calls)", r, inner.calls)
	}
	if s := c.Stats(); s.DeadBytes != int64(len(long)) || s.Entries != 1 {
		t.Fatalf("stats: %+v, want %d dead bytes and 1 entry", s, len(long))
	}
}

// FuzzDiskCacheLoad: no segment content fails the open or panics, and two
// opens of the same bytes report identical Stats.
func FuzzDiskCacheLoad(f *testing.F) {
	req := CompletionRequest{Prompt: "alpha"}
	fp := Fingerprint("echo", req)
	record := func(r diskRecord) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	valid := record(diskRecord{FP: fp, Version: FingerprintVersion, Text: "a", Prompt: 1, Compl: 1})
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), record(diskRecord{FP: fp, Version: FingerprintVersion, Deleted: true})...))
	f.Add(append(append([]byte{}, valid...), valid[:len(valid)/2]...))
	f.Add(record(diskRecord{FP: fp, Version: FingerprintVersion + 1, Text: "a"}))
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000000.jsonl"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() DiskCacheStats {
			c, err := NewDiskCache(nopBackend{}, dir, 0)
			if err != nil {
				t.Fatalf("open failed on segment bytes: %v", err)
			}
			s := c.Stats()
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			return s
		}
		if first, second := open(), open(); first != second {
			t.Fatalf("two opens of the same segment disagree:\n%+v\n%+v", first, second)
		}
	})
}
