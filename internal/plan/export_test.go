package plan

import "llmsql/internal/sql"

// PlanUnoptimized builds the plan without running optimizer rules, for the
// differential test that executes both forms.
func PlanUnoptimized(sel *sql.SelectStmt, cat Catalog) (Node, error) {
	p := &planner{cat: cat}
	return p.planSelect(sel)
}
