package main

import (
	"fmt"
	"math/rand"
	"strings"

	"llmsql/internal/core"
	"llmsql/internal/serve"
	"llmsql/internal/world"
)

// connections is the closed loop's client count: one synchronous caller per
// core of the 2-vCPU box the bounds were measured on.
const connections = 2

// workloadNames lists the workloads in reporting order. The names are
// fixed: later issues and BENCHMARK.json refer to them.
var workloadNames = []string{"hot_repeat", "adhoc_plan", "fanout_scan", "view_mixed"}

// digest identifies a result set: the row count plus an FNV-64a hash of the
// SQLLiteral-rendered rows.
type digest struct {
	rows int
	hash uint64
}

// op is one request of a connection's cycle. Queries carry the digest the
// solo record pass saw; exec ops (REFRESH) are checked for ok only.
type op struct {
	req    serve.Request
	digest digest
}

func (o *op) isQuery() bool { return o.req.Op == "query" }

// workload is one traffic mix: the engine configuration every session runs
// with, the untimed per-connection init statements, and one seeded request
// cycle per connection.
type workload struct {
	name string
	cfg  core.Config
	init []string
	ops  [connections][]op
	// partitioned: the connections split the requests between them instead
	// of each cycling the whole pool in its own order.
	partitioned bool
}

// solo is the cycle of the traced run's single-session pass: connection 0's,
// or every connection's in turn when they partition the requests.
func (wl *workload) solo() []op {
	if !wl.partitioned {
		return wl.ops[0]
	}
	var all []op
	for _, ops := range wl.ops {
		all = append(all, ops...)
	}
	return all
}

// view_mixed's statements; the exec/storage/core per-layer rows reuse them.
var viewDefs = []struct{ name, sel string }{
	{"v_country", "SELECT name, capital, continent, population, gdp FROM country"},
	{"v_laureate", "SELECT name, field, year, country FROM laureate"},
}

const (
	viewGroupBy   = "SELECT continent, COUNT(*) AS n, SUM(population) AS pop FROM v_country GROUP BY continent ORDER BY continent"
	viewSortLimit = "SELECT name, population FROM v_country WHERE population > $1 ORDER BY population DESC, name LIMIT 10"
	viewJoin      = "SELECT l.name, l.field, c.capital FROM v_laureate AS l JOIN v_country AS c ON l.country = c.name WHERE l.year > $1 ORDER BY l.name LIMIT 20"
	viewWide      = "SELECT name, field, year, country FROM v_laureate"
	refreshSQL    = "REFRESH MATERIALIZED VIEW v_laureate"
)

func query(sql string, args ...any) op {
	return op{req: serve.Request{Op: "query", SQL: sql, Args: args}}
}

// distinctInts draws n distinct integers from [lo, hi], one from each of n
// equal strata (hi-lo+1 must be at least n): every seed covers the whole
// range, so two seeds ask for similar amounts of work. Parameters stay
// integral so the JSON wire form and the record pass bind the same literal.
func distinctInts(rng *rand.Rand, lo, hi, n int) []int64 {
	span := hi - lo + 1
	out := make([]int64, n)
	for i := range out {
		from, to := lo+i*span/n, lo+(i+1)*span/n
		out[i] = int64(from + rng.Intn(to-from))
	}
	return out
}

// pickKeys draws n of the domain's most prominent keys (the ones the model
// reliably knows), SQL-quoted.
func pickKeys(rng *rand.Rand, d *world.Domain, n int) []string {
	top := d.TopKeys(4 * n)
	if n > len(top) {
		n = len(top)
	}
	out := make([]string, n)
	for i, p := range rng.Perm(len(top))[:n] {
		out[i] = "'" + strings.ReplaceAll(top[p], "'", "''") + "'"
	}
	return out
}

// shuffled returns a seeded permutation of ops; each connection cycles its
// own order.
func shuffled(ops []op, seed int64, conn int) []op {
	out := append([]op(nil), ops...)
	rand.New(rand.NewSource(seed*1000003+int64(conn))).Shuffle(len(out), func(i, j int) {
		out[i], out[j] = out[j], out[i]
	})
	return out
}

// buildWorkload generates the named workload's requests from the seed. The
// program under test only ever sees the generated SQL.
func buildWorkload(name string, w *world.World, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	wl := &workload{name: name, cfg: core.DefaultConfig()}
	var pool []op
	switch name {
	case "hot_repeat":
		// 4 parameterised shapes x 16 values, every prompt (<= 8 rounds
		// each, ~512 in all) resident in the 4,096-entry session cache.
		wl.cfg.CacheCapacity = -1
		shapes := []struct {
			sql    string
			lo, hi int
		}{
			{"SELECT name, capital, population FROM country WHERE population > $1 LIMIT 5", 2, 60},
			{"SELECT title, year, rating FROM movie WHERE year >= $1 ORDER BY rating DESC, title LIMIT 5", 1940, 2015},
			{"SELECT name, field, year FROM laureate WHERE year >= $1 ORDER BY year, name LIMIT 5", 1905, 2015},
			{"SELECT name, sector, revenue FROM company WHERE revenue > $1 ORDER BY revenue DESC, name LIMIT 10", 1, 40},
		}
		for _, s := range shapes {
			for _, v := range distinctInts(rng, s.lo, s.hi, 16) {
				pool = append(pool, query(s.sql, v))
			}
		}

	case "adhoc_plan":
		// 1,024 textually distinct statements cycled against the 256-entry
		// plan cache: every prepare misses, execution is cached calls.
		wl.cfg.Strategy = core.StrategyAuto
		wl.cfg.Temperature = 0
		wl.cfg.CacheCapacity = -1
		const variants, entities = 256, 32
		countries := pickKeys(rng, w.Domain("country"), entities)
		movies := pickKeys(rng, w.Domain("movie"), entities)
		laureates := pickKeys(rng, w.Domain("laureate"), entities)
		for i := 0; i < variants; i++ {
			c, m, l := countries[i%len(countries)], movies[i%len(movies)], laureates[i%len(laureates)]
			in := strings.Join([]string{m, movies[(i+1)%len(movies)], movies[(i+2)%len(movies)]}, ", ")
			pool = append(pool,
				query(fmt.Sprintf("SELECT a%[1]d.name, a%[1]d.capital, a%[1]d.population FROM country AS a%[1]d WHERE a%[1]d.name = %[2]s", i, c)),
				query(fmt.Sprintf("SELECT b%[1]d.title, b%[1]d.director, b%[1]d.year FROM movie AS b%[1]d WHERE b%[1]d.title = %[2]s", i, m)),
				query(fmt.Sprintf("SELECT l%[1]d.name, l%[1]d.field, c%[1]d.capital FROM laureate AS l%[1]d JOIN country AS c%[1]d ON l%[1]d.country = c%[1]d.name WHERE l%[1]d.name = %[2]s", i, l)),
				query(fmt.Sprintf("SELECT c%[1]d.continent, COUNT(*) AS n FROM movie AS m%[1]d JOIN country AS c%[1]d ON m%[1]d.country = c%[1]d.name WHERE m%[1]d.title IN (%[2]s) GROUP BY c%[1]d.continent ORDER BY c%[1]d.continent", i, in)),
			)
		}

	case "fanout_scan":
		// 8 whole-table key-then-attr scans over pairwise disjoint (table,
		// attribute) sets; connection 0 owns country+movie, connection 1
		// laureate+company, so the two never issue the same prompt and the
		// ~8.4k distinct requests per cycle thrash the 4,096-entry memo.
		wl.cfg.Strategy = core.StrategyKeyThenAttr
		wl.cfg.Votes = 3
		wl.cfg.BatchSize = 1
		wl.cfg.Parallelism = 4
		scans := [connections][]string{
			{
				"SELECT name, capital, continent, population FROM country",
				"SELECT title, director, year, genre FROM movie",
				"SELECT name, area, gdp FROM country",
				"SELECT title, rating, country FROM movie",
			},
			{
				"SELECT name, field, year FROM laureate",
				"SELECT name, sector, revenue, employees FROM company",
				"SELECT name, country FROM laureate",
				"SELECT name, founded, country FROM company",
			},
		}
		for c, list := range scans {
			var ops []op
			for _, s := range list {
				ops = append(ops, query(s))
			}
			wl.ops[c] = shuffled(ops, seed, c)
		}
		wl.partitioned = true
		return wl, nil

	case "view_mixed":
		// 95% reads over two session-local materialized views, 5% REFRESH.
		wl.cfg.CacheCapacity = -1
		for _, v := range viewDefs {
			wl.init = append(wl.init, "CREATE MATERIALIZED VIEW "+v.name+" AS "+v.sel)
		}
		pops := distinctInts(rng, 2, 60, 16)
		years := distinctInts(rng, 1905, 2015, 16)
		for i := 0; i < 95; i++ {
			pool = append(pool,
				query(viewGroupBy),
				query(viewSortLimit, pops[i%len(pops)]),
				query(viewJoin, years[i%len(years)]),
				query(viewWide),
			)
		}
		for i := 0; i < 20; i++ {
			pool = append(pool, op{req: serve.Request{Op: "exec", SQL: refreshSQL}})
		}

	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	for c := range wl.ops {
		wl.ops[c] = shuffled(pool, seed, c)
	}
	return wl, nil
}
