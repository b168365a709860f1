package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"llmsql/internal/world"
)

// benchmarkJSON mirrors the driver's contract file at the repo root.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmoke runs every workload end to end with a 0.2 s window — untraced,
// then traced — and checks the output against BENCHMARK.json: every named
// metric present with its unit, no failed request, spans that nest.
func TestSmoke(t *testing.T) {
	layerBenchtime = "2ms"
	contract := loadContract(t)
	var names []string
	for _, w := range contract.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	small := world.Config{Countries: 30, Movies: 40, Laureates: 30, Companies: 30}
	const warm, window = 50 * time.Millisecond, 200 * time.Millisecond
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			size := small
			if name == "fanout_scan" {
				// Its validity check needs more distinct prompts per cycle
				// than the 4,096-entry memo holds: only the full world has them.
				size = paperWorld
			}
			tmp := t.TempDir()
			r, err := measure(name, 7, size, tmp, warm, window)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted == 0 || r.EndToEnd["error_rate"].Value != 0 {
				t.Fatalf("%d of %d requests failed: %s", r.Failed, r.Attempted, r.FirstError)
			}
			for _, m := range contract.EndToEnd {
				got, ok := r.EndToEnd[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %q and a positive value", m.Name, got, ok, m.Unit)
				}
			}
			var out bytes.Buffer
			if err := printRun(&out, r); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct{ Metrics map[string]metric }
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			if len(last.Metrics) != len(contract.EndToEnd) {
				t.Errorf("result line has %d metrics, BENCHMARK.json %d", len(last.Metrics), len(contract.EndToEnd))
			}

			spansFile := filepath.Join(tmp, "spans.jsonl")
			tr, err := traced(name, 7, size, tmp, warm, window, spansFile)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Failed != 0 {
				t.Fatalf("traced run: %d failed: %s", tr.Failed, tr.FirstError)
			}
			if len(tr.PerLayer) != len(contract.PerLayer) {
				t.Errorf("traced run has %d per-layer metrics, BENCHMARK.json %d", len(tr.PerLayer), len(contract.PerLayer))
			}
			for _, m := range contract.PerLayer {
				if got, ok := tr.PerLayer[m.Name]; !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
				}
			}
			checkSpans(t, spansFile)
		})
	}
}

// checkSpans reads the written spans back: both passes recorded their root
// spans, every child lies inside its parent and shares its request id, and
// self time plus covered child time is the parent's duration.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	byID := make(map[uint64]span)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
		byID[s.ID] = s
	}
	roots := make(map[string]int)
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent == 0 {
			roots[s.Name]++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Name != "core.query" || s.Start < p.Start || s.End > p.End || s.Request != p.Request {
			t.Fatalf("span %+v does not nest in its parent %+v", s, p)
		}
	}
	if roots["serve.request"] == 0 || roots["core.query"] == 0 {
		t.Fatalf("root spans %v: want serve.request (pass A) and core.query (pass B)", roots)
	}
	durs, selfs, covered := selfTimes(spans, "core.query")
	for i := range durs {
		if selfs[i] < 0 || selfs[i]+covered[i] != durs[i] {
			t.Fatalf("query %d: self %v + covered %v != duration %v", i, selfs[i], covered[i], durs[i])
		}
	}
}

// TestBoundsMatchContract keeps -compare's bounds table and BENCHMARK.json
// from drifting apart.
func TestBoundsMatchContract(t *testing.T) {
	want := make(map[string]string)
	for _, m := range loadContract(t).EndToEnd {
		b, _ := json.Marshal([]any{m.Unit, m.Better == "higher", m.Bound})
		want[m.Name] = string(b)
	}
	for _, m := range endToEnd {
		if m.name == "error_rate" {
			continue // carried by failed/attempted in the driver's result line
		}
		b, _ := json.Marshal([]any{m.unit, m.higher, m.bound})
		if want[m.name] != string(b) {
			t.Errorf("%s: compare table %s, BENCHMARK.json %s", m.name, b, want[m.name])
		}
		delete(want, m.name)
	}
	if len(want) != 0 {
		t.Errorf("BENCHMARK.json metrics missing from the compare table: %v", want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	noisy := []float64{100, 140, 70, 120, 85}
	for _, tc := range []struct {
		name   string
		higher bool
		bound  float64
		a, b   []float64
		want   string
	}{
		{"qps", true, 0.25, steady, steady, "ok"},
		{"qps", true, 0.25, steady, []float64{70, 71, 69, 70, 70}, "REGRESSION"},
		{"qps", true, 0.25, steady, []float64{130, 131, 129, 130, 130}, "ok"},
		{"p50_ms", false, 0.25, steady, []float64{130, 131, 129, 130, 130}, "REGRESSION"},
		{"p50_ms", false, 0.25, noisy, noisy, "unresolved"},
		{"p50_ms", false, 0.25, noisy, []float64{300, 310, 320, 305, 315}, "REGRESSION"},
		{"error_rate", false, 0, []float64{0, 0, 0}, []float64{0, 0.01, 0.01}, "REGRESSION"},
		{"error_rate", false, 0, []float64{0, 0, 0}, []float64{0, 0, 0}, "ok"},
		{"setup_s", false, 0.25, []float64{0.4, 0.4, 0.4}, []float64{0.6, 0.6, 0.6}, "ok"}, // +50% but < 0.25 s
		{"setup_s", false, 0.25, []float64{1.5, 1.5, 1.5}, []float64{2.0, 2.0, 2.0}, "REGRESSION"},
	} {
		a, b := append([]float64(nil), tc.a...), append([]float64(nil), tc.b...)
		if got, _ := judge(tc.name, tc.higher, tc.bound, a, b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}
