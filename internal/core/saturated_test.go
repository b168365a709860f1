package core

import (
	"fmt"
	"slices"
	"testing"

	"llmsql/internal/llm"
	"llmsql/internal/rel"
	"llmsql/internal/world"
)

// saturatedProfile is a model that knows every fact of its world for
// certain and states it without noise: every entity is known and every
// enumeration surfaces it (the recall rates are clamped to 1 for every
// prominence), no entity is invented, no value is perturbed, no row is
// malformed and every filter is obeyed. What such a model says is the row
// store, so any difference between a scan's rows and the world's is the
// engine's doing — in practice, the completion parser's.
func saturatedProfile() llm.NoiseProfile {
	p := llm.ProfileMedium
	p.Coverage, p.EnumRecall, p.AttrRecall = 7, 7, 7
	p.Hallucination, p.FormatError, p.ValueNoise = 0, 0, 0
	p.FilterAdherence = 1
	return p
}

// adversarialWorld is one domain whose keys and TEXT values are spelled to
// trip a parser that guesses: they end in '.', contain " is ", ": ", ", " or
// a refusal word, open like a prose line, are non-ASCII, or are another
// key followed by ':'. None is one of the spellings DESIGN.md "Completion
// parsing" names as ambiguous, except values ending in '.', which a bare
// ATTR answer leaves indistinguishable from the value plus a sentence
// period (see saturatedClippedCells).
func adversarialWorld() *world.World {
	schema := rel.NewSchema(
		rel.Column{Name: "title", Type: rel.TypeText, Key: true, Desc: "the album's title"},
		rel.Column{Name: "artist", Type: rel.TypeText, Desc: "the recording artist"},
		rel.Column{Name: "year", Type: rel.TypeInt, Desc: "the release year"},
		rel.Column{Name: "rating", Type: rel.TypeFloat, Desc: "average critic rating from 0 to 10"},
		rel.Column{Name: "label", Type: rel.TypeText, Desc: "the record label"},
	)
	albums := []struct {
		title, artist, label string
		year                 int64
		rating               float64
	}{
		{"Unknown Pleasures", "Joy Division", "Factory Records Ltd.", 1979, 9.1},
		{"This is Hardcore", "Pulp", "Island", 1998, 8.2},
		{"Star Trek", "The Artist is Present", "Elektra: Asylum", 1979, 5.5},
		{"Star Trek: Voyager", "Jay Chattaway", "Crescendo", 1995, 6.1},
		{"Washington D.C.", "Crosby, Stills & Nash", "Atlantic", 1971, 7.4},
		{"Golden River of the North L.", "Unknown Mortal Orchestra", "Jagjaguwar", 2011, 7.9},
		{"Côte d'Ivoire", "Zürich Ensemble", "Ⱥlpha Ⱥudio", 2004, 6.8},
		{"I Don't Know Why", "Norah Jones", "Blue Note", 2002, 7.7},
		{"Here Are the Young Men", "Joy Division", "Factory", 1982, 8.0},
		{"Sgt. Pepper's Lonely Hearts Club Band", "The Beatles", "Parlophone", 1967, 9.6},
		{"İstanbul, Not Constantinople", "They Might Be Giants", "Bar/None", 1990, 6.9},
		{"As Requested", "Mr. Jones", "Warp Records Inc.", 2015, 5.2},
		{"No Further Questions", "Sr. & Jr.", "Rough Trade", 2008, 6.3},
		{"Bağlama: Türküler, Vol. 2", "Ayşe Öztürk", "Kalan Müzik", 1999, 8.4},
	}
	d := &world.Domain{Name: "album", Description: "a music album", Schema: schema}
	for i, a := range albums {
		d.Entities = append(d.Entities, world.Entity{
			Key:        a.title,
			Row:        rel.Row{rel.Text(a.title), rel.Text(a.artist), rel.Int(a.year), rel.Float(a.rating), rel.Text(a.label)},
			Prominence: 1 - 0.9*float64(i)/float64(len(albums)),
		})
	}
	return &world.World{Seed: 1, Domains: map[string]*world.Domain{d.Name: d}}
}

// saturatedClippedCells names the adversarial cells (title, column) whose
// value ends in '.' and whose single-key ATTR answer is the bare value:
// "Sr. & Jr." reads exactly like the value "Sr. & Jr" answered with a
// period, so these cells read without their final period.
// Only single-key ATTR answers can spell them so (batched lines, LIST rows
// and the sentence and colon phrasings all delimit the value), so only
// key-then-attr at BatchSize 1 shows them.
var saturatedClippedCells = []string{"No Further Questions/artist"}

// TestSaturatedScansReturnTheWorld runs SELECT * over every domain of the
// default probe world (seed 2024, 40/30/20/20) and of adversarialWorld
// against a saturated model, for each strategy, parser mode, BatchSize and
// Parallelism, and requires the world's rows back exactly. Two exceptions
// are contracts, not slack: a strict full-table scan may drop a row whose
// LIST line carries a chatty numeric ("about 68"), but must not return a
// wrong one; and the cells saturatedClippedCells names read without their
// final period.
func TestSaturatedScansReturnTheWorld(t *testing.T) {
	worlds := []struct {
		name string
		w    *world.World
	}{
		{"default", world.Generate(world.Config{Seed: 2024, Countries: 40, Movies: 30, Laureates: 20, Companies: 20})},
		{"adversarial", adversarialWorld()},
	}
	clipped := map[string]bool{}
	for _, ww := range worlds {
		model := llm.NewSynthLM(ww.w, saturatedProfile(), 7)
		var domains []string
		for name := range ww.w.Domains {
			domains = append(domains, name)
		}
		slices.Sort(domains)
		for _, strategy := range []Strategy{StrategyFullTable, StrategyKeyThenAttr, StrategyPaged} {
			for _, tolerant := range []bool{true, false} {
				for _, batch := range []int{1, 4} {
					for _, par := range []int{1, 4} {
						cfg := DefaultConfig()
						cfg.Temperature = 0
						cfg.Strategy = strategy
						cfg.Tolerant = tolerant
						cfg.BatchSize = batch
						cfg.Parallelism = par
						e := New(model, cfg)
						for _, name := range domains {
							e.RegisterWorldDomain(ww.w.Domain(name))
						}
						for _, name := range domains {
							label := fmt.Sprintf("%s/%s/%s/tolerant=%v/batch=%d/par=%d", ww.name, name, strategy, tolerant, batch, par)
							res, err := e.Query("SELECT * FROM " + name)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							d := ww.w.Domain(name)
							partial := strategy == StrategyFullTable && !tolerant
							for _, cell := range compareWithWorld(t, label, d, res.Result.Rows, partial) {
								if strategy != StrategyKeyThenAttr || batch != 1 {
									t.Errorf("%s: %s reads without its final period", label, cell)
								}
								clipped[cell] = true
							}
						}
					}
				}
			}
		}
	}
	var got []string
	for cell := range clipped {
		got = append(got, cell)
	}
	slices.Sort(got)
	if !slices.Equal(got, saturatedClippedCells) {
		t.Errorf("cells read without their final period: %q, want %q", got, saturatedClippedCells)
	}
}

// compareWithWorld checks rows against the domain's ground truth: every
// row must be a world row (up to a cell that reads without its value's
// final period, returned as "title/column" for the caller to check against
// saturatedClippedCells), no entity may repeat, and unless partial every
// world row must be returned.
func compareWithWorld(t *testing.T, label string, d *world.Domain, rows []rel.Row, partial bool) (clipped []string) {
	t.Helper()
	seen := map[string]bool{}
	for _, row := range rows {
		key := row[0].String()
		e := d.Entity(key)
		if e == nil || e.Key != key {
			t.Errorf("%s: row %v has no world entity", label, row)
			continue
		}
		if seen[key] {
			t.Errorf("%s: entity %q returned twice", label, key)
		}
		seen[key] = true
		for i, v := range row {
			want := e.Row[i]
			if v.Type() == want.Type() && v.String() == want.String() && v.IsNull() == want.IsNull() {
				continue
			}
			if want.Type() == rel.TypeText && !v.IsNull() && v.AsText()+"." == want.AsText() {
				clipped = append(clipped, key+"/"+d.Schema.Col(i).Name)
				continue
			}
			t.Errorf("%s: %s of %q is %q (%s), want %q", label, d.Schema.Col(i).Name, key, v.String(), v.Type(), want.String())
		}
	}
	if !partial && len(seen) != len(d.Entities) {
		var missing []string
		for _, e := range d.Entities {
			if !seen[e.Key] {
				missing = append(missing, e.Key)
			}
		}
		t.Errorf("%s: %d of %d entities returned; missing %q", label, len(seen), len(d.Entities), missing)
	}
	return clipped
}
