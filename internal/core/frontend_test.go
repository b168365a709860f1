package core

import (
	"testing"

	"llmsql/internal/llm"
	"llmsql/internal/sql"
)

// frontendQuery exercises the whole SQL front end: keywords, qualified
// identifiers, strings, numbers, two-char operators, comments, a join,
// aggregation, ordering and a positional parameter. Its tables and columns
// resolve against the synthetic world, so it also drives the planner.
const frontendQuery = `SELECT c.continent, COUNT(*) AS n, SUM(c.population) * 1.5
FROM country AS c JOIN laureate AS l ON c.name = l.country -- inline comment
WHERE c.population >= $1 AND c.continent <> 'Europe'
GROUP BY c.continent HAVING COUNT(*) > 0
ORDER BY n DESC, c.continent LIMIT 10`

// TestFrontendParseAllocs guards the parser's allocations per statement:
// 34 on Go 1.24, with or without -race.
func TestFrontendParseAllocs(t *testing.T) {
	const maxAllocs = 41
	n := testing.AllocsPerRun(200, func() {
		if _, err := sql.Parse(frontendQuery); err != nil {
			t.Fatal(err)
		}
	})
	if n > maxAllocs {
		t.Fatalf("sql.Parse: %v allocs per call, want at most %d", n, maxAllocs)
	}
}

// TestFrontendParsePlanAllocs guards parse plus plan: 570 allocations on
// Go 1.24, 625 under -race. With the plan cache off every Explain re-plans,
// and Explain never executes, so no model traffic is issued.
func TestFrontendParsePlanAllocs(t *testing.T) {
	const maxAllocs = 662
	cfg := DefaultConfig()
	cfg.PlanCacheCapacity = -1
	e := newTestEngine(t, testWorld(), llm.ProfileMedium, cfg)
	defer e.Close()
	n := testing.AllocsPerRun(200, func() {
		if _, err := e.Explain(frontendQuery); err != nil {
			t.Fatal(err)
		}
	})
	if n > maxAllocs {
		t.Fatalf("Explain (parse + plan): %v allocs per call, want at most %d", n, maxAllocs)
	}
}
