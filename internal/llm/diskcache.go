package llm

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"llmsql/internal/lru"
)

// DefaultDiskCacheBytes bounds a DiskCache when the caller passes no bound:
// 64 MiB of live completions, several full benchmark suites deep.
const DefaultDiskCacheBytes = 64 << 20

// compactionFloor is the minimum dead-byte volume before a compaction is
// worth the rewrite.
const compactionFloor = 1 << 20

// maxRecordBytes bounds one on-disk record, its newline included. put does
// not persist a longer record and load skips a longer line, so the two sides
// agree on what a segment can hold.
const maxRecordBytes = 1 << 20

// DiskCache is a persistent content-addressed prompt cache that layers in
// front of any Backend: completions are keyed by Fingerprint (model id +
// prompt + decode parameters, versioned) and survive across queries,
// sessions and processes. Hits come back from Disk, so billing (CostModel.Bill)
// charges them zero latency and dollars and scans can attribute them
// separately from in-memory hits.
//
// On disk the cache is a directory of append-only segment files of JSON
// records, one completion per line. The index — fingerprint to completion —
// lives in memory and is rebuilt by scanning the segments at Open, with the
// last record per fingerprint winning, so a crash mid-append loses at most
// the torn final record. Live entries are LRU-bounded by MaxBytes; evicted
// and overwritten records stay on disk as dead bytes until a compaction
// (triggered when dead bytes outgrow live bytes) rewrites the survivors
// into a fresh segment and deletes the old files. All methods are safe for
// concurrent use; records of a different FingerprintVersion are skipped at
// load, so bumping the version invalidates the persisted entries wholesale.
type DiskCache struct {
	Inner Model

	dir      string
	maxBytes int64
	version  int // fingerprint/record format version (FingerprintVersion)

	mu sync.Mutex
	// entries is bounded by liveBytes, not by count: evictLocked drops the
	// oldest entries itself, so the lru's own bound is never reached.
	entries   *lru.Cache[string, diskEntry]
	liveBytes int64
	deadBytes int64
	seg       *os.File // active segment, append-only
	segIndex  int
	stats     DiskCacheStats
}

// diskEntry is one live completion: the decoded response plus the byte size
// of its on-disk record (the unit the LRU bound counts).
type diskEntry struct {
	resp CompletionResponse
	size int64
}

// diskRecord is the on-disk JSON shape of one completion. A record with
// Deleted set is a tombstone: it removes the fingerprint's live entry when
// replayed at load, making Invalidate durable across reopens.
type diskRecord struct {
	FP        string `json:"fp"`
	Version   int    `json:"v"`
	Text      string `json:"text"`
	Prompt    int    `json:"pt"`
	Compl     int    `json:"ct"`
	Truncated bool   `json:"tr,omitempty"`
	Deleted   bool   `json:"del,omitempty"`
}

// DiskCacheStats reports the persistent cache's effectiveness and occupancy.
type DiskCacheStats struct {
	// Hits / Misses / Evictions count lookups and LRU evictions since Open.
	Hits      int
	Misses    int
	Evictions int
	// WriteErrors counts records that failed to persist (the completion is
	// still returned; the cache is best-effort on the write path).
	WriteErrors int
	// Entries and LiveBytes describe the live set; DeadBytes is on-disk
	// volume awaiting compaction; MaxBytes is the LRU bound.
	Entries   int
	LiveBytes int64
	DeadBytes int64
	MaxBytes  int64
	// Compactions counts segment rewrites since Open.
	Compactions int
}

// NewDiskCache opens (creating if needed) the persistent prompt cache at
// dir, layered in front of inner. maxBytes bounds the live set; values < 1
// select DefaultDiskCacheBytes.
func NewDiskCache(inner Model, dir string, maxBytes int64) (*DiskCache, error) {
	return newDiskCacheAt(inner, dir, maxBytes, FingerprintVersion)
}

// newDiskCacheAt is NewDiskCache pinned to an explicit fingerprint version
// (exposed separately so versioning tests can write "old" caches).
func newDiskCacheAt(inner Model, dir string, maxBytes int64, version int) (*DiskCache, error) {
	if maxBytes < 1 {
		maxBytes = DefaultDiskCacheBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("llm: disk cache: %w", err)
	}
	c := &DiskCache{
		Inner:    inner,
		dir:      dir,
		maxBytes: maxBytes,
		version:  version,
		entries:  lru.New[string, diskEntry](math.MaxInt),
	}
	if err := c.load(version); err != nil {
		return nil, err
	}
	seg, err := os.OpenFile(c.segPath(c.segIndex), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("llm: disk cache: %w", err)
	}
	c.seg = seg
	// The loaded set may exceed a smaller bound than it was written under.
	c.evictLocked()
	return c, nil
}

func (c *DiskCache) segPath(i int) string {
	return filepath.Join(c.dir, fmt.Sprintf("seg-%06d.jsonl", i))
}

// segments returns the existing segment files in write order.
func (c *DiskCache) segments() ([]string, error) {
	names, err := filepath.Glob(filepath.Join(c.dir, "seg-*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// load rebuilds the index by scanning the segments oldest-first. Later
// records override earlier ones (the overridden record becomes dead bytes),
// and read order doubles as recency: the last-written record is the most
// recently used. Records of a different fingerprint version are dead on
// arrival. A torn final line (crash mid-append), a line that is not a record
// and a line over maxRecordBytes are skipped as dead bytes: a segment's
// content never fails the open, only an I/O error does.
func (c *DiskCache) load(version int) error {
	segs, err := c.segments()
	if err != nil {
		return fmt.Errorf("llm: disk cache: %w", err)
	}
	for _, path := range segs {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("llm: disk cache: %w", err)
		}
		err = c.loadSegment(bufio.NewReaderSize(f, maxRecordBytes), version)
		f.Close()
		if err != nil {
			return fmt.Errorf("llm: disk cache %s: %w", path, err)
		}
		if i := segIndexOf(path); i >= c.segIndex {
			c.segIndex = i + 1
		}
	}
	return nil
}

// loadSegment replays one segment's lines into the index (see load).
func (c *DiskCache) loadSegment(r *bufio.Reader, version int) error {
	for {
		line, err := r.ReadSlice('\n')
		size := int64(len(line))
		for err == bufio.ErrBufferFull { // over maxRecordBytes: dead to its end
			line, err = r.ReadSlice('\n')
			size += int64(len(line))
			line = nil
		}
		if err != nil && err != io.EOF {
			return err
		}
		var rec diskRecord
		switch {
		case size == 0:
		case json.Unmarshal(line, &rec) != nil || rec.FP == "" || rec.Version != version:
			// Torn, foreign or over-long, or of another format version.
			c.deadBytes += size
		case rec.Deleted:
			// Tombstone: the fingerprint's earlier record (if still live)
			// and the tombstone itself are both dead bytes now.
			c.removeLocked(rec.FP)
			c.deadBytes += size
		default:
			c.insertLocked(rec.FP, CompletionResponse{
				Text:             rec.Text,
				PromptTokens:     rec.Prompt,
				CompletionTokens: rec.Compl,
				Truncated:        rec.Truncated,
			}, size)
		}
		if err == io.EOF {
			return nil
		}
	}
}

func segIndexOf(path string) int {
	base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "seg-"), ".jsonl")
	var i int
	fmt.Sscanf(base, "%d", &i)
	return i
}

// Name implements Model.
func (c *DiskCache) Name() string { return c.Inner.Name() }

// Unwrap implements Unwrapper.
func (c *DiskCache) Unwrap() Model { return c.Inner }

// Complete implements Model. The lock is released around the inner call so
// misses for distinct prompts proceed concurrently; two simultaneous misses
// for the same fingerprint both call the model (deterministic backends
// return the same response, so last-writer-wins insertion is harmless).
func (c *DiskCache) Complete(req CompletionRequest) (CompletionResponse, error) {
	fp := fingerprintAt(c.version, c.Name(), req)
	c.mu.Lock()
	if e, ok := c.entries.Get(fp); ok {
		c.stats.Hits++
		c.mu.Unlock()
		resp := e.resp
		resp.Provenance = Provenance{From: Disk, DiskBytes: e.size}
		return resp, nil
	}
	c.stats.Misses++
	c.mu.Unlock()
	resp, err := c.Inner.Complete(req)
	if err != nil {
		return resp, err
	}
	c.put(fp, resp)
	return resp, nil
}

// Contains reports whether the request's completion is already persisted.
// A probe, not a lookup: it touches neither the hit/miss counters nor the
// LRU recency, so cost estimators can ask freely (warm-cache costing).
func (c *DiskCache) Contains(req CompletionRequest) bool {
	fp := fingerprintAt(c.version, c.Name(), req)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries.Peek(fp)
	return ok
}

// Invalidate drops the request's persisted completion, reporting whether an
// entry was live. The removal is durable: a tombstone record is appended to
// the active segment, so a reopened cache stays cold for the fingerprint
// until the model answers it again. Used to force selective re-asks —
// materialized-view refresh tests and staleness drills.
func (c *DiskCache) Invalidate(req CompletionRequest) bool {
	fp := fingerprintAt(c.version, c.Name(), req)
	rec := diskRecord{FP: fp, Version: c.version, Deleted: true}
	data, err := json.Marshal(rec)
	if err != nil {
		return false
	}
	data = append(data, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries.Peek(fp); !ok {
		return false
	}
	if _, err := c.seg.Write(data); err != nil {
		c.stats.WriteErrors++
		// The in-memory removal still proceeds: this process stays cold, and
		// the worst case after a reopen is a stale hit, same as any lost write.
	}
	c.removeLocked(fp)
	c.deadBytes += int64(len(data))
	return true
}

// removeLocked drops the fingerprint's live entry (if any), moving its
// on-disk record to the dead set.
func (c *DiskCache) removeLocked(fp string) {
	if e, ok := c.entries.Remove(fp); ok {
		c.liveBytes -= e.size
		c.deadBytes += e.size
	}
}

// put persists one completion and inserts it into the index, evicting and
// compacting as the bounds require. Only the reproducible payload is stored
// — cache/latency markings are stripped so a replayed hit is
// indistinguishable from the original answer.
func (c *DiskCache) put(fp string, resp CompletionResponse) {
	rec := diskRecord{
		FP:        fp,
		Version:   c.version,
		Text:      resp.Text,
		Prompt:    resp.PromptTokens,
		Compl:     resp.CompletionTokens,
		Truncated: resp.Truncated,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		c.mu.Lock()
		c.stats.WriteErrors++
		c.mu.Unlock()
		return
	}
	data = append(data, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(data) > maxRecordBytes {
		c.stats.WriteErrors++ // load could not read it back
		return
	}
	if _, err := c.seg.Write(data); err != nil {
		c.stats.WriteErrors++
		return
	}
	c.insertLocked(fp, CompletionResponse{
		Text:             resp.Text,
		PromptTokens:     resp.PromptTokens,
		CompletionTokens: resp.CompletionTokens,
		Truncated:        resp.Truncated,
	}, int64(len(data)))
	c.evictLocked()
	c.maybeCompactLocked()
}

// insertLocked adds or refreshes one live entry at the MRU position.
func (c *DiskCache) insertLocked(fp string, resp CompletionResponse, size int64) {
	if old, ok := c.entries.Peek(fp); ok {
		// Overridden by a newer record: the old one is dead bytes now.
		c.liveBytes -= old.size
		c.deadBytes += old.size
	}
	c.entries.Put(fp, diskEntry{resp: resp, size: size})
	c.liveBytes += size
}

// evictLocked drops least-recently-used entries until the live set fits the
// byte bound. Evicted records stay on disk as dead bytes until compaction.
func (c *DiskCache) evictLocked() {
	for c.liveBytes > c.maxBytes && c.entries.Len() > 1 {
		fp, _, _ := c.entries.Oldest()
		c.removeLocked(fp)
		c.stats.Evictions++
	}
}

// maybeCompactLocked rewrites the live set into a fresh segment and deletes
// the old files once dead bytes outgrow live bytes (and a floor, so tiny
// caches don't churn). Live entries are written LRU-first so a reload
// reconstructs the same recency order.
func (c *DiskCache) maybeCompactLocked() {
	if c.deadBytes <= c.liveBytes || c.deadBytes < compactionFloor {
		return
	}
	oldSegs, err := c.segments()
	if err != nil {
		return
	}
	c.segIndex++
	seg, err := os.OpenFile(c.segPath(c.segIndex), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	w := bufio.NewWriter(seg)
	ok := true
	c.entries.OldestFirst(func(fp string, e diskEntry) bool {
		data, err := json.Marshal(diskRecord{
			FP:        fp,
			Version:   c.version,
			Text:      e.resp.Text,
			Prompt:    e.resp.PromptTokens,
			Compl:     e.resp.CompletionTokens,
			Truncated: e.resp.Truncated,
		})
		if err == nil {
			_, err = w.Write(append(data, '\n'))
		}
		ok = err == nil
		return ok
	})
	if err := w.Flush(); err != nil {
		ok = false
	}
	if !ok {
		// Leave the old segments in place; the half-written new segment is
		// harmless (its records are duplicates, dead on the next load).
		seg.Close()
		c.stats.WriteErrors++
		return
	}
	c.seg.Close()
	c.seg = seg
	for _, p := range oldSegs {
		os.Remove(p)
	}
	c.deadBytes = 0
	c.stats.Compactions++
}

// Stats returns a snapshot of the cache counters and occupancy.
func (c *DiskCache) Stats() DiskCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.entries.Len()
	s.LiveBytes = c.liveBytes
	s.DeadBytes = c.deadBytes
	s.MaxBytes = c.maxBytes
	return s
}

// Dir returns the cache directory.
func (c *DiskCache) Dir() string { return c.dir }

// Close releases the active segment file. The cache must not be used after.
func (c *DiskCache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seg == nil {
		return nil
	}
	err := c.seg.Close()
	c.seg = nil
	return err
}

// CheckCacheDir verifies dir can host a DiskCache — creating it if needed,
// scanning any existing segments and opening a writable segment — without
// touching a model. For validating user-supplied cache directories up
// front, where a clean error beats a panic from the first engine.
func CheckCacheDir(dir string) error {
	c, err := NewDiskCache(nopBackend{}, dir, 0)
	if err != nil {
		return err
	}
	return c.Close()
}

// nopBackend backs probe-only DiskCache instances; it never completes.
type nopBackend struct{}

// Name implements Model.
func (nopBackend) Name() string { return "nop" }

// Complete implements Model.
func (nopBackend) Complete(CompletionRequest) (CompletionResponse, error) {
	return CompletionResponse{}, fmt.Errorf("llm: the nop backend does not complete prompts")
}

// FindDiskCache walks a wrapper chain and returns the first DiskCache, or
// nil.
func FindDiskCache(m Model) *DiskCache { return findLayer[*DiskCache](m) }
