package world

import (
	"sort"
	"testing"

	"llmsql/internal/rel"
)

func TestGenerateDeterministic(t *testing.T) {
	w1 := Generate(Config{Seed: 7})
	w2 := Generate(Config{Seed: 7})
	for _, name := range w1.DomainNames() {
		d1, d2 := w1.Domain(name), w2.Domain(name)
		if len(d1.Entities) != len(d2.Entities) {
			t.Fatalf("%s: entity counts differ", name)
		}
		for i := range d1.Entities {
			if d1.Entities[i].Row.AllKey() != d2.Entities[i].Row.AllKey() {
				t.Fatalf("%s entity %d differs between runs", name, i)
			}
		}
	}
	w3 := Generate(Config{Seed: 8})
	if w3.Domain("country").Entities[0].Key == w1.Domain("country").Entities[0].Key &&
		w3.Domain("country").Entities[1].Key == w1.Domain("country").Entities[1].Key &&
		w3.Domain("country").Entities[2].Key == w1.Domain("country").Entities[2].Key {
		t.Fatal("different seeds produced identical worlds")
	}
}

func TestDomainSizesAndDefaults(t *testing.T) {
	w := Generate(Config{Seed: 1})
	sizes := map[string]int{"country": 180, "movie": 400, "laureate": 250, "company": 300}
	for name, want := range sizes {
		d := w.Domain(name)
		if d == nil {
			t.Fatalf("missing domain %s", name)
		}
		if len(d.Entities) != want {
			t.Fatalf("%s: %d entities, want %d", name, len(d.Entities), want)
		}
	}
	w = Generate(Config{Seed: 1, Countries: 10, Movies: 20, Laureates: 5, Companies: 8})
	if len(w.Domain("country").Entities) != 10 || len(w.Domain("movie").Entities) != 20 {
		t.Fatal("custom sizes ignored")
	}
}

func TestKeysUniqueWithinDomain(t *testing.T) {
	w := Generate(Config{Seed: 42})
	for _, name := range w.DomainNames() {
		d := w.Domain(name)
		seen := map[string]bool{}
		for _, e := range d.Entities {
			if seen[e.Key] {
				t.Fatalf("%s: duplicate key %q", name, e.Key)
			}
			seen[e.Key] = true
			if e.Key != e.Row[0].AsText() {
				t.Fatalf("%s: key %q != first column %q", name, e.Key, e.Row[0].AsText())
			}
		}
	}
}

func TestProminenceMonotone(t *testing.T) {
	w := Generate(Config{Seed: 3})
	d := w.Domain("movie")
	for i := 1; i < len(d.Entities); i++ {
		if d.Entities[i].Prominence > d.Entities[i-1].Prominence {
			t.Fatalf("prominence not monotone at %d", i)
		}
	}
	if d.Entities[0].Prominence != 1.0 {
		t.Fatalf("top prominence: %f", d.Entities[0].Prominence)
	}
	if last := d.Entities[len(d.Entities)-1].Prominence; last <= 0 || last >= 1 {
		t.Fatalf("tail prominence out of range: %f", last)
	}
}

func TestForeignKeysResolve(t *testing.T) {
	w := Generate(Config{Seed: 5})
	countries := map[string]bool{}
	for _, e := range w.Domain("country").Entities {
		countries[e.Key] = true
	}
	for _, dom := range []string{"movie", "laureate", "company"} {
		d := w.Domain(dom)
		ci := d.Schema.IndexOf("country")
		if ci < 0 {
			t.Fatalf("%s has no country column", dom)
		}
		for _, e := range d.Entities {
			if !countries[e.Row[ci].AsText()] {
				t.Fatalf("%s %q references unknown country %q", dom, e.Key, e.Row[ci].AsText())
			}
		}
	}
}

func TestRowsMatchSchemaTypes(t *testing.T) {
	w := Generate(Config{Seed: 9})
	for _, name := range w.DomainNames() {
		d := w.Domain(name)
		for _, e := range d.Entities {
			if len(e.Row) != d.Schema.Len() {
				t.Fatalf("%s: row width %d != schema %d", name, len(e.Row), d.Schema.Len())
			}
			for i, v := range e.Row {
				if v.IsNull() {
					continue
				}
				want := d.Schema.Col(i).Type
				if v.Type() != want {
					t.Fatalf("%s.%s: value type %v != %v", name, d.Schema.Col(i).Name, v.Type(), want)
				}
			}
		}
	}
}

func TestLoadDB(t *testing.T) {
	w := Generate(Config{Seed: 11, Countries: 20, Movies: 30, Laureates: 10, Companies: 10})
	db, err := LoadDB(w)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("country")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 20 {
		t.Fatalf("country rows: %d", tbl.RowCount())
	}
	if !tbl.Schema().Col(0).Key {
		t.Fatal("key flag lost in load")
	}
	for _, name := range []string{"movie", "laureate", "company"} {
		if !db.HasTable(name) {
			t.Fatalf("missing table %s", name)
		}
	}
}

func TestEntityLookupAndDecile(t *testing.T) {
	w := Generate(Config{Seed: 2, Countries: 50})
	d := w.Domain("country")
	top := d.Entities[0]
	if e := d.Entity(top.Key); e == nil || e.Key != top.Key {
		t.Fatal("Entity lookup failed")
	}
	if e := d.Entity("  " + top.Key + " "); e == nil {
		t.Fatal("Entity lookup must trim")
	}
	if d.Entity("nope") != nil {
		t.Fatal("phantom entity")
	}
	if dec := d.ProminenceDecile(top.Key); dec != 0 {
		t.Fatalf("top decile: %d", dec)
	}
	tail := d.Entities[len(d.Entities)-1]
	if dec := d.ProminenceDecile(tail.Key); dec != 9 {
		t.Fatalf("tail decile: %d", dec)
	}
	if d.ProminenceDecile("nope") != -1 {
		t.Fatal("missing key decile")
	}
}

func TestTopKeysAndDistinctValues(t *testing.T) {
	w := Generate(Config{Seed: 4, Countries: 30})
	d := w.Domain("country")
	top := d.TopKeys(5)
	if len(top) != 5 || top[0] != d.Entities[0].Key {
		t.Fatalf("top keys: %v", top)
	}
	if len(d.TopKeys(1000)) != 30 {
		t.Fatal("TopKeys must clamp")
	}
	conts := d.DistinctValues("continent")
	if len(conts) == 0 || len(conts) > 5 {
		t.Fatalf("continents: %v", conts)
	}
	for i := 1; i < len(conts); i++ {
		if conts[i-1] >= conts[i] {
			t.Fatal("distinct values must be sorted")
		}
	}
	if d.DistinctValues("nope") != nil {
		t.Fatal("unknown column must return nil")
	}
}

func TestDirectorsRepeat(t *testing.T) {
	// GROUP BY director must be meaningful: fewer distinct directors than
	// movies.
	w := Generate(Config{Seed: 6})
	d := w.Domain("movie")
	directors := d.DistinctValues("director")
	if len(directors) >= len(d.Entities) {
		t.Fatalf("directors do not repeat: %d directors, %d movies", len(directors), len(d.Entities))
	}
}

func TestNumericRangesSane(t *testing.T) {
	w := Generate(Config{Seed: 13})
	d := w.Domain("country")
	popIdx := d.Schema.IndexOf("population")
	for _, e := range d.Entities {
		pop := e.Row[popIdx]
		if pop.IsNull() || pop.AsInt() < 1 {
			t.Fatalf("bad population: %v", pop)
		}
	}
	m := w.Domain("movie")
	yearIdx := m.Schema.IndexOf("year")
	ratingIdx := m.Schema.IndexOf("rating")
	for _, e := range m.Entities {
		if y := e.Row[yearIdx].AsInt(); y < 1935 || y > 2023 {
			t.Fatalf("bad year: %d", y)
		}
		if r := e.Row[ratingIdx].AsFloat(); r < 0 || r > 10 {
			t.Fatalf("bad rating: %f", r)
		}
	}
}

func TestSchemasHaveDescriptions(t *testing.T) {
	w := Generate(Config{Seed: 1})
	for _, name := range w.DomainNames() {
		d := w.Domain(name)
		if d.Description == "" {
			t.Fatalf("%s: missing domain description", name)
		}
		for _, c := range d.Schema.Columns {
			if c.Desc == "" {
				t.Fatalf("%s.%s: missing column description", name, c.Name)
			}
		}
		if !d.Schema.Col(0).Key {
			t.Fatalf("%s: first column must be the key", name)
		}
	}
	_ = rel.TypeInt // keep the import for clarity of intent
}

// DistinctValues returns the sorted distinct non-null values of a column.
func (d *Domain) DistinctValues(column string) []string {
	idx := d.Schema.IndexOf(column)
	if idx < 0 {
		return nil
	}
	seen := map[string]bool{}
	for _, e := range d.Entities {
		v := e.Row[idx]
		if !v.IsNull() {
			seen[v.AsText()] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
