// Package world generates the synthetic world that substitutes for the
// real-world web corpus behind the paper's LLM. It produces, from one seed:
//
//   - ground-truth relations for four domains (countries, movies, laureates,
//     companies) with realistic cardinalities, key/foreign-key structure and
//     mixed attribute types, and
//   - a per-entity prominence score with a Zipf-like distribution, which the
//     simulated LLM (internal/llm) uses to decide how reliably each fact is
//     "remembered" — reproducing the head-vs-tail recall gap of real models.
package world

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"llmsql/internal/rel"
	"llmsql/internal/storage"
)

// Entity is one row of a domain with its prominence.
type Entity struct {
	// Key is the entity's primary-key value (always the first column).
	Key string
	// Row is the ground-truth tuple, aligned with the domain schema.
	Row rel.Row
	// Prominence in (0,1]: 1 is maximally famous. Zipf-distributed by rank.
	Prominence float64
}

// Domain is one synthetic relation.
type Domain struct {
	// Name is the table name.
	Name string
	// Description is a one-line natural-language description used in
	// prompts ("a sovereign country of the world").
	Description string
	// Schema declares the columns (with Desc strings for prompting).
	Schema rel.Schema
	// Entities holds the rows sorted by descending prominence.
	Entities []Entity
}

// Rows returns the ground-truth rows in prominence order.
func (d *Domain) Rows() []rel.Row {
	out := make([]rel.Row, len(d.Entities))
	for i, e := range d.Entities {
		out[i] = e.Row
	}
	return out
}

// Entity returns the entity with the given key (case-insensitive), or nil.
func (d *Domain) Entity(key string) *Entity {
	key = strings.ToLower(strings.TrimSpace(key))
	for i := range d.Entities {
		if strings.ToLower(d.Entities[i].Key) == key {
			return &d.Entities[i]
		}
	}
	return nil
}

// World is the generated universe.
type World struct {
	// Seed reproduces the world.
	Seed int64
	// Domains maps table name to domain.
	Domains map[string]*Domain
	// order preserves generation order for deterministic iteration.
	order []string
}

// Domain returns the named domain or nil.
func (w *World) Domain(name string) *Domain {
	return w.Domains[strings.ToLower(name)]
}

// DomainNames returns the domain names in generation order.
func (w *World) DomainNames() []string {
	out := make([]string, len(w.order))
	copy(out, w.order)
	return out
}

// Config sizes the world.
type Config struct {
	// Seed drives all randomness; equal seeds produce equal worlds.
	Seed int64
	// Countries, Movies, Laureates, Companies are per-domain entity counts.
	// Zero values take the defaults (180, 400, 250, 300).
	Countries int
	Movies    int
	Laureates int
	Companies int
}

func (c Config) withDefaults() Config {
	if c.Countries == 0 {
		c.Countries = 180
	}
	if c.Movies == 0 {
		c.Movies = 400
	}
	if c.Laureates == 0 {
		c.Laureates = 250
	}
	if c.Companies == 0 {
		c.Companies = 300
	}
	return c
}

// Generate builds a world from the configuration.
func Generate(cfg Config) *World {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{Seed: cfg.Seed, Domains: map[string]*Domain{}}

	countries := genCountries(rng, cfg.Countries)
	w.add(countries)
	w.add(genMovies(rng, cfg.Movies, countries))
	w.add(genLaureates(rng, cfg.Laureates, countries))
	w.add(genCompanies(rng, cfg.Companies, countries))
	return w
}

func (w *World) add(d *Domain) {
	w.Domains[d.Name] = d
	w.order = append(w.order, d.Name)
}

// prominenceOf assigns the popularity score for rank i of n: 1 for the most
// famous entity, decaying convexly to 0.05 for the least famous. The score
// is relative to the domain size so that small test worlds keep the same
// head-to-tail shape as full-scale ones.
func prominenceOf(i, n int) float64 {
	if n <= 1 {
		return 1
	}
	rel := float64(i) / float64(n-1)
	return 0.05 + 0.95*math.Pow(1-rel, 1.5)
}

// LoadDB materializes the ground-truth world into a fresh row store.
func LoadDB(w *World) (*storage.DB, error) {
	db := storage.NewDB()
	for _, name := range w.order {
		d := w.Domains[name]
		tbl, err := db.CreateTable(d.Name, d.Schema)
		if err != nil {
			return nil, err
		}
		if err := tbl.InsertBatch(d.Rows()); err != nil {
			return nil, fmt.Errorf("world: loading %s: %w", d.Name, err)
		}
	}
	return db, nil
}

// ---- name generation ----

var nameOnsets = []string{
	"Al", "Ba", "Ca", "Da", "El", "Fa", "Ga", "Ha", "Ista", "Jo", "Ka", "Lu",
	"Ma", "Na", "Or", "Pa", "Qua", "Ra", "Sa", "Ta", "U", "Va", "We", "Xa",
	"Ya", "Za", "Bre", "Cro", "Dri", "Fle", "Gri", "Kle", "Mon", "Nor", "Pol",
	"Ser", "Tor", "Vel",
}

var nameMids = []string{
	"ba", "da", "ga", "ka", "la", "ma", "na", "ra", "sa", "ta", "va", "za",
	"be", "de", "ge", "ke", "le", "me", "ne", "re", "se", "te", "ve", "ze",
	"bi", "di", "gi", "ki", "li", "mi", "ni", "ri", "si", "ti", "vi", "zi",
	"lo", "mo", "no", "ro", "so", "to",
}

var nameCodas = []string{
	"nia", "land", "stan", "dor", "via", "ria", "mark", "burg", "ton", "ville",
	"grad", "polis", "ia", "ea", "ora", "una", "ande", "este",
}

// makeName builds a deterministic pseudo-word; syllables controls length.
func makeName(rng *rand.Rand, syllables int) string {
	var b strings.Builder
	b.WriteString(nameOnsets[rng.Intn(len(nameOnsets))])
	for i := 0; i < syllables; i++ {
		b.WriteString(nameMids[rng.Intn(len(nameMids))])
	}
	b.WriteString(nameCodas[rng.Intn(len(nameCodas))])
	return b.String()
}

// makePersonName builds "Given Surname".
func makePersonName(rng *rand.Rand) string {
	given := []string{
		"Ada", "Boris", "Clara", "Dmitri", "Elena", "Farid", "Greta", "Hugo",
		"Ingrid", "Jonas", "Kiran", "Leila", "Marco", "Nadia", "Omar", "Priya",
		"Quentin", "Rosa", "Stefan", "Tara", "Umberto", "Vera", "Wassim",
		"Xenia", "Yuki", "Zoran",
	}
	sur := makeName(rng, 1)
	return given[rng.Intn(len(given))] + " " + sur
}

// uniqueNames draws n distinct names using gen.
func uniqueNames(rng *rand.Rand, n int, gen func(*rand.Rand) string) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		name := gen(rng)
		if seen[name] {
			// Disambiguate deterministically rather than looping forever.
			name = fmt.Sprintf("%s %c.", name, 'A'+rng.Intn(26))
			if seen[name] {
				continue
			}
		}
		seen[name] = true
		out = append(out, name)
	}
	return out
}

// pickWeighted picks an element favouring the front of the slice (so famous
// countries accumulate more movies/companies, like the real world).
func pickWeighted(rng *rand.Rand, n int) int {
	// Squaring a uniform variate skews toward 0.
	u := rng.Float64()
	return int(u * u * float64(n))
}

// ---- domains ----

var continents = []string{"Europe", "Asia", "Africa", "Americas", "Oceania"}

func genCountries(rng *rand.Rand, n int) *Domain {
	schema := rel.NewSchema(
		rel.Column{Name: "name", Type: rel.TypeText, Key: true, Desc: "the country's common English name"},
		rel.Column{Name: "capital", Type: rel.TypeText, Desc: "the capital city"},
		rel.Column{Name: "continent", Type: rel.TypeText, Desc: "the continent (Europe, Asia, Africa, Americas or Oceania)"},
		rel.Column{Name: "population", Type: rel.TypeInt, Desc: "population in millions of inhabitants"},
		rel.Column{Name: "area", Type: rel.TypeFloat, Desc: "land area in thousands of square kilometres"},
		rel.Column{Name: "gdp", Type: rel.TypeFloat, Desc: "gross domestic product in billions of US dollars"},
	)
	names := uniqueNames(rng, n, func(r *rand.Rand) string { return makeName(r, 1) })
	capitals := uniqueNames(rng, n, func(r *rand.Rand) string { return makeName(r, 2) })
	d := &Domain{
		Name:        "country",
		Description: "a sovereign country of the world",
		Schema:      schema,
	}
	for i := 0; i < n; i++ {
		// Population follows a log-normal-ish skew; big countries first.
		pop := int64(math.Exp(rng.NormFloat64()*1.3+3.2)) + 1
		area := math.Exp(rng.NormFloat64()*1.5 + 5.0)
		gdp := float64(pop) * math.Exp(rng.NormFloat64()*0.9+1.8)
		row := rel.Row{
			rel.Text(names[i]),
			rel.Text(capitals[i]),
			rel.Text(continents[rng.Intn(len(continents))]),
			rel.Int(pop),
			rel.Float(round1(area)),
			rel.Float(round1(gdp)),
		}
		d.Entities = append(d.Entities, Entity{Key: names[i], Row: row, Prominence: prominenceOf(i, n)})
	}
	return d
}

var genres = []string{"Drama", "Comedy", "Thriller", "Documentary", "Animation", "Action", "Romance", "Horror"}

var titleWords = [][]string{
	{"The", "A", "Last", "First", "Dark", "Silent", "Broken", "Hidden", "Lost", "Eternal", "Golden", "Crimson"},
	{"Garden", "River", "Mirror", "Empire", "Journey", "Winter", "Harvest", "Letter", "Horizon", "Station", "Island", "Orchard"},
	{"of Dreams", "of Stone", "at Dawn", "in Exile", "of Glass", "of the North", "Below", "Ascending", "Reborn", "Undone", "", ""},
}

func makeTitle(rng *rand.Rand) string {
	parts := []string{
		titleWords[0][rng.Intn(len(titleWords[0]))],
		titleWords[1][rng.Intn(len(titleWords[1]))],
	}
	if tail := titleWords[2][rng.Intn(len(titleWords[2]))]; tail != "" {
		parts = append(parts, tail)
	}
	return strings.Join(parts, " ")
}

func genMovies(rng *rand.Rand, n int, countries *Domain) *Domain {
	schema := rel.NewSchema(
		rel.Column{Name: "title", Type: rel.TypeText, Key: true, Desc: "the film's title"},
		rel.Column{Name: "director", Type: rel.TypeText, Desc: "the director's full name"},
		rel.Column{Name: "year", Type: rel.TypeInt, Desc: "the release year"},
		rel.Column{Name: "genre", Type: rel.TypeText, Desc: "the primary genre"},
		rel.Column{Name: "rating", Type: rel.TypeFloat, Desc: "average critic rating from 0 to 10"},
		rel.Column{Name: "country", Type: rel.TypeText, Desc: "the country of production (a country name)"},
	)
	titles := uniqueNames(rng, n, makeTitle)
	// A pool of directors smaller than the movie count so directors repeat,
	// enabling meaningful GROUP BY director queries.
	directors := uniqueNames(rng, n/4+1, makePersonName)
	d := &Domain{
		Name:        "movie",
		Description: "a feature film",
		Schema:      schema,
	}
	for i := 0; i < n; i++ {
		ci := pickWeighted(rng, len(countries.Entities))
		row := rel.Row{
			rel.Text(titles[i]),
			rel.Text(directors[pickWeighted(rng, len(directors))]),
			rel.Int(int64(1935 + rng.Intn(89))),
			rel.Text(genres[rng.Intn(len(genres))]),
			rel.Float(round1(3.0 + rng.Float64()*7.0)),
			countries.Entities[ci].Row[0],
		}
		d.Entities = append(d.Entities, Entity{Key: titles[i], Row: row, Prominence: prominenceOf(i, n)})
	}
	return d
}

var fields = []string{"Physics", "Chemistry", "Medicine", "Literature", "Peace", "Economics"}

func genLaureates(rng *rand.Rand, n int, countries *Domain) *Domain {
	schema := rel.NewSchema(
		rel.Column{Name: "name", Type: rel.TypeText, Key: true, Desc: "the laureate's full name"},
		rel.Column{Name: "field", Type: rel.TypeText, Desc: "the prize field (Physics, Chemistry, Medicine, Literature, Peace or Economics)"},
		rel.Column{Name: "year", Type: rel.TypeInt, Desc: "the year the prize was awarded"},
		rel.Column{Name: "country", Type: rel.TypeText, Desc: "the laureate's country of birth (a country name)"},
	)
	names := uniqueNames(rng, n, makePersonName)
	d := &Domain{
		Name:        "laureate",
		Description: "a science-prize laureate",
		Schema:      schema,
	}
	for i := 0; i < n; i++ {
		ci := pickWeighted(rng, len(countries.Entities))
		row := rel.Row{
			rel.Text(names[i]),
			rel.Text(fields[rng.Intn(len(fields))]),
			rel.Int(int64(1901 + rng.Intn(123))),
			countries.Entities[ci].Row[0],
		}
		d.Entities = append(d.Entities, Entity{Key: names[i], Row: row, Prominence: prominenceOf(i, n)})
	}
	return d
}

var sectors = []string{"Technology", "Finance", "Energy", "Healthcare", "Retail", "Manufacturing", "Transport"}

func genCompanies(rng *rand.Rand, n int, countries *Domain) *Domain {
	schema := rel.NewSchema(
		rel.Column{Name: "name", Type: rel.TypeText, Key: true, Desc: "the company's registered name"},
		rel.Column{Name: "sector", Type: rel.TypeText, Desc: "the primary business sector"},
		rel.Column{Name: "revenue", Type: rel.TypeFloat, Desc: "annual revenue in billions of US dollars"},
		rel.Column{Name: "employees", Type: rel.TypeInt, Desc: "number of employees in thousands"},
		rel.Column{Name: "founded", Type: rel.TypeInt, Desc: "the founding year"},
		rel.Column{Name: "country", Type: rel.TypeText, Desc: "the country of the headquarters (a country name)"},
	)
	suffixes := []string{"Corp", "Group", "Systems", "Industries", "Labs", "Holdings", "Works", "Partners"}
	names := uniqueNames(rng, n, func(r *rand.Rand) string {
		return makeName(r, 1) + " " + suffixes[r.Intn(len(suffixes))]
	})
	d := &Domain{
		Name:        "company",
		Description: "a large multinational company",
		Schema:      schema,
	}
	for i := 0; i < n; i++ {
		ci := pickWeighted(rng, len(countries.Entities))
		row := rel.Row{
			rel.Text(names[i]),
			rel.Text(sectors[rng.Intn(len(sectors))]),
			rel.Float(round1(math.Exp(rng.NormFloat64()*1.1 + 2.0))),
			rel.Int(int64(math.Exp(rng.NormFloat64()*1.0+3.0)) + 1),
			rel.Int(int64(1860 + rng.Intn(160))),
			countries.Entities[ci].Row[0],
		}
		d.Entities = append(d.Entities, Entity{Key: names[i], Row: row, Prominence: prominenceOf(i, n)})
	}
	return d
}

func round1(f float64) float64 { return math.Round(f*10) / 10 }

// ProminenceDecile returns 0..9 for an entity's rank within its domain
// (0 = most prominent decile), used by the popularity experiment.
func (d *Domain) ProminenceDecile(key string) int {
	key = strings.ToLower(strings.TrimSpace(key))
	for i := range d.Entities {
		if strings.ToLower(d.Entities[i].Key) == key {
			return i * 10 / len(d.Entities)
		}
	}
	return -1
}

// TopKeys returns the keys of the k most prominent entities.
func (d *Domain) TopKeys(k int) []string {
	if k > len(d.Entities) {
		k = len(d.Entities)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = d.Entities[i].Key
	}
	return out
}
