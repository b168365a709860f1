package bench

import (
	"fmt"
	"strings"
	"testing"

	"llmsql/internal/llm"
)

func TestTable13WarmCache(t *testing.T) {
	r, err := Table13WarmCache(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Body, "Identical rows across all runs: true") {
		t.Fatalf("cache changed answers:\n%s", r.Body)
	}
	if !strings.Contains(r.Body, "Warm EXPLAIN carries the discount: true") {
		t.Fatalf("warm-hit estimate missing:\n%s", r.Body)
	}
	if r.CSV == "" {
		t.Fatal("Table 13 must emit CSV")
	}
	// Warm runs — same engine and fresh engine alike — must cost zero live
	// calls and zero tokens.
	warmRows := 0
	for _, line := range dataLines(r.Body) {
		fields := strings.Fields(line)
		if fields[0] != "warm" {
			continue
		}
		warmRows++
		// run label is "warm same engine" / "warm fresh engine": live
		// calls and tokens sit after the 3-word label.
		if fields[4] != "0" || fields[5] != "0" {
			t.Fatalf("warm run paid live calls/tokens: %s", line)
		}
	}
	if warmRows != 2 {
		t.Fatalf("expected 2 warm rows:\n%s", r.Body)
	}
	// The pressure block must evict within the byte bound.
	pressure := ""
	for _, line := range strings.Split(r.Body, "\n") {
		if strings.Contains(line, "Byte-bounded LRU under pressure") {
			pressure = line
		}
	}
	var bound, live, entries, evictions, hits, misses int
	if _, err := fmt.Sscanf(pressure, "Byte-bounded LRU under pressure (bound %d B): %d live bytes, %d entries, %d evictions, %d hits / %d misses.",
		&bound, &live, &entries, &evictions, &hits, &misses); err != nil {
		t.Fatalf("pressure line %q: %v", pressure, err)
	}
	if evictions == 0 {
		t.Fatalf("pressure block evicted nothing: %s", pressure)
	}
	if live > bound {
		t.Fatalf("cache exceeded its byte bound: %s", pressure)
	}
}

// TestSuiteReplayDeterminism is the CI replay gate in miniature: record the
// efficiency experiments once, then replay them twice and require
// byte-identical reports — the property the replay-determinism job asserts
// over the checked-in fixture.
func TestSuiteReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the efficiency suite three times")
	}
	runners := map[string]func(Options) (Report, error){
		"Table 9":  Table9Parallelism,
		"Table 11": Table11LimitPushdown,
		"Table 13": Table13WarmCache,
	}
	trace := llm.NewTrace()
	rec := testOptions()
	rec.Record = trace
	recorded := map[string]string{}
	for id, run := range runners {
		r, err := run(rec)
		if err != nil {
			t.Fatalf("%s record: %v", id, err)
		}
		recorded[id] = r.String()
	}
	if trace.Len() == 0 {
		t.Fatal("recording captured nothing")
	}
	for round := 0; round < 2; round++ {
		rep := testOptions()
		rep.Replay = trace
		for id, run := range runners {
			r, err := run(rep)
			if err != nil {
				t.Fatalf("%s replay: %v", id, err)
			}
			if r.String() != recorded[id] {
				t.Fatalf("%s replay round %d diverged from the recorded run:\nrecorded:\n%s\nreplayed:\n%s",
					id, round, recorded[id], r.String())
			}
		}
	}
}
