package storage

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"llmsql/internal/rel"
)

func countrySchema() rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "name", Type: rel.TypeText, Key: true},
		rel.Column{Name: "capital", Type: rel.TypeText},
		rel.Column{Name: "population", Type: rel.TypeInt},
	)
}

func newCountryTable(t *testing.T) *Table {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("country", countrySchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := []rel.Row{
		{rel.Text("France"), rel.Text("Paris"), rel.Int(68)},
		{rel.Text("Japan"), rel.Text("Tokyo"), rel.Int(125)},
		{rel.Text("Brazil"), rel.Text("Brasilia"), rel.Int(214)},
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCreateAndLookupTable(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable("t", countrySchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("T", countrySchema()); err == nil {
		t.Fatal("duplicate create must fail (case-insensitive)")
	}
	if !db.HasTable("t") {
		t.Fatal("HasTable")
	}
	if _, err := db.Table("T"); err != nil {
		t.Fatal("case-insensitive lookup")
	}
	if _, err := db.Table("missing"); err == nil {
		t.Fatal("missing table must error")
	}
	db.DropTable("t")
	if db.HasTable("t") {
		t.Fatal("drop failed")
	}
}

func TestTableNamesSorted(t *testing.T) {
	db := NewDB()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := db.CreateTable(n, countrySchema()); err != nil {
			t.Fatal(err)
		}
	}
	names := db.TableNames()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("names: %v", names)
	}
}

func TestInsertTypeChecking(t *testing.T) {
	tbl := newCountryTable(t)
	// Coercion on insert: text population.
	if err := tbl.Insert(rel.Row{rel.Text("India"), rel.Text("New Delhi"), rel.Text("1,400")}); err != nil {
		t.Fatal(err)
	}
	rows := tbl.All()
	last := rows[len(rows)-1]
	if last[2].Type() != rel.TypeInt || last[2].AsInt() != 1400 {
		t.Fatalf("coerced insert: %v", last)
	}
	// Arity error.
	if err := tbl.Insert(rel.Row{rel.Text("X")}); err == nil {
		t.Fatal("arity error expected")
	}
	// Uncoercible value.
	if err := tbl.Insert(rel.Row{rel.Text("Y"), rel.Text("Z"), rel.Text("lots")}); err == nil {
		t.Fatal("coercion error expected")
	}
}

func TestScanSnapshot(t *testing.T) {
	tbl := newCountryTable(t)
	it := tbl.Scan()
	if it.Len() != 3 {
		t.Fatalf("scan len: %d", it.Len())
	}
	// Insert during iteration must not affect the snapshot.
	if err := tbl.Insert(rel.Row{rel.Text("Kenya"), rel.Text("Nairobi"), rel.Int(54)}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("snapshot iteration saw %d rows", n)
	}
	if tbl.RowCount() != 4 {
		t.Fatalf("row count: %d", tbl.RowCount())
	}
}

func TestTruncate(t *testing.T) {
	tbl := newCountryTable(t)
	tbl.Truncate()
	if tbl.RowCount() != 0 || tbl.Scan().Len() != 0 {
		t.Fatal("truncate")
	}
	if err := tbl.Insert(rel.Row{rel.Text("Kenya"), rel.Text("Nairobi"), rel.Int(54)}); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 1 {
		t.Fatalf("row count after truncate + insert: %d", tbl.RowCount())
	}
}

func TestInsertBatchAllOrNothing(t *testing.T) {
	tbl := newCountryTable(t)
	err := tbl.InsertBatch([]rel.Row{
		{rel.Text("Kenya"), rel.Text("Nairobi"), rel.Int(54)},
		{rel.Text("Chad"), rel.Text("N'Djamena"), rel.Text("lots")},
	})
	if err == nil || !strings.Contains(err.Error(), "(row 2)") {
		t.Fatalf("bad second row: err = %v, want a row 2 error", err)
	}
	if tbl.RowCount() != 3 {
		t.Fatalf("a failed batch stored rows: count %d, want 3", tbl.RowCount())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := newCountryTable(t)
	if err := tbl.Insert(rel.Row{rel.Text("Atlantis"), rel.Text("Poseidonia"), rel.NullOf(rel.TypeInt)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(records[0], ","); got != "name,capital,population" {
		t.Fatalf("header: %q", got)
	}
	rows := tbl.All()
	if len(records) != len(rows)+1 {
		t.Fatalf("exported %d records for %d rows", len(records)-1, len(rows))
	}
	for i, row := range rows {
		for c, field := range records[i+1] {
			v, err := rel.ParseTyped(field, tbl.Schema().Col(c).Type)
			if err != nil {
				t.Fatalf("row %d column %d: %v", i, c, err)
			}
			if !rel.Equal(v, row[c]) && !(v.IsNull() && row[c].IsNull()) {
				t.Fatalf("row %d column %d: %q reads back as %v, stored %v", i, c, field, v, row[c])
			}
		}
	}
}

// Property: inserting N valid rows yields RowCount N and scan sees them all
// in order.
func TestInsertScanProperty(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) > 200 {
			vals = vals[:200]
		}
		db := NewDB()
		tbl, err := db.CreateTable("p", rel.NewSchema(
			rel.Column{Name: "id", Type: rel.TypeInt},
		))
		if err != nil {
			return false
		}
		for _, v := range vals {
			if err := tbl.Insert(rel.Row{rel.Int(v)}); err != nil {
				return false
			}
		}
		if tbl.RowCount() != len(vals) {
			return false
		}
		it := tbl.Scan()
		for i := 0; ; i++ {
			row, ok := it.Next()
			if !ok {
				return i == len(vals)
			}
			if row[0].AsInt() != vals[i] {
				return false
			}
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertScan(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("c", rel.NewSchema(rel.Column{Name: "n", Type: rel.TypeInt}))
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 100; i++ {
				if e := tbl.Insert(rel.Row{rel.Int(int64(g*1000 + i))}); e != nil {
					err = e
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 4; g++ {
		go func() {
			var err error
			for i := 0; i < 50; i++ {
				it := tbl.Scan()
				n := 0
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					n++
				}
				if n > 400 {
					err = fmt.Errorf("saw %d rows", n)
				}
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if tbl.RowCount() != 400 {
		t.Fatalf("final count: %d", tbl.RowCount())
	}
}

// TableNames returns the sorted list of table names.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestReplaceSwapsAllOrNothing(t *testing.T) {
	tbl := newCountryTable(t)
	snap := tbl.Scan()
	prev, err := tbl.Replace([]rel.Row{{rel.Text("Kenya"), rel.Text("Nairobi"), rel.Text("54")}})
	if err != nil || prev != 3 {
		t.Fatalf("Replace = %d, %v; want 3, nil", prev, err)
	}
	if rows := tbl.All(); len(rows) != 1 || rows[0][2].AsInt() != 54 {
		t.Fatalf("after Replace: %v, want Kenya with a coerced population", rows)
	}
	if snap.Len() != 3 {
		t.Fatalf("a scan started before Replace sees %d rows, want 3", snap.Len())
	}
	_, err = tbl.Replace([]rel.Row{
		{rel.Text("Chad"), rel.Text("N'Djamena"), rel.Int(18)},
		{rel.Text("Mali"), rel.Text("Bamako"), rel.Text("lots")},
	})
	if err == nil || !strings.Contains(err.Error(), "(row 2)") {
		t.Fatalf("bad second row: err = %v, want a row 2 error", err)
	}
	if rows := tbl.All(); len(rows) != 1 || rows[0][0].AsText() != "Kenya" {
		t.Fatalf("a failed Replace changed the rows: %v", rows)
	}
}
