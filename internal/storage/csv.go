package storage

import (
	"encoding/csv"
	"io"
)

// ExportCSV writes the table (header + rows) to w in CSV form. NULL values
// are written as empty fields.
func (t *Table) ExportCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.schema.Names()); err != nil {
		return err
	}
	t.mu.RLock()
	rows := t.rows
	t.mu.RUnlock()
	record := make([]string, t.schema.Len())
	for _, row := range rows {
		for i, v := range row {
			if v.IsNull() {
				record[i] = ""
			} else {
				record[i] = v.String()
			}
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
