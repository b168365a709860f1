package main

import (
	"testing"

	"llmsql/internal/core"
	"llmsql/internal/llm"
	"llmsql/internal/world"
)

// TestScoreBindsParams: -score plans the ground truth with the query's own
// -param bindings, positional and named alike.
func TestScoreBindsParams(t *testing.T) {
	w := world.Generate(world.Config{Seed: 2024, Countries: 20, Movies: 5, Laureates: 5, Companies: 5})
	db, err := world.LoadDB(w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Temperature = 0
	eng := core.New(llm.NewSynthLM(w, llm.ProfileMedium, 2024), cfg)
	eng.RegisterWorldDomain(w.Domain("country"))
	for _, tc := range []struct{ param, query string }{
		{"50", "SELECT name, capital FROM country WHERE population > $1"},
		{"min=50", "SELECT name, capital FROM country WHERE population > :min"},
	} {
		var params paramFlags
		if err := params.Set(tc.param); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(tc.query, params.args()...)
		if err != nil {
			t.Fatal(err)
		}
		if err := scoreQuery(db, tc.query, &params, res); err != nil {
			t.Errorf("-param %s: %v", tc.param, err)
		}
	}
}
