package sqlparse_test

import (
	"testing"

	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

// FuzzParse feeds arbitrary text to the parser, as the query service
// does with its clients' SQL, and checks three properties: Parse never
// panics; Normalize is idempotent; and a query and its normalized form
// agree on whether they parse. testdata/fuzz/FuzzParse holds inputs
// that once broke a property.
func FuzzParse(f *testing.F) {
	for _, name := range tpch.QueryNames {
		sql, err := tpch.QuerySQL(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sql)
	}
	f.Add("SELECT count(*) AS n, a.x FROM t a WHERE a.y >= -1.5e3 AND NOT (a.s = 'it''s') GROUP BY a.x ORDER BY n DESC LIMIT 3")
	f.Fuzz(func(t *testing.T, sql string) {
		_, perr := sqlparse.Parse(sql)
		norm, err := sqlparse.Normalize(sql)
		if err != nil {
			return
		}
		again, err := sqlparse.Normalize(norm)
		if err != nil || again != norm {
			t.Fatalf("Normalize not idempotent: %q -> %q -> %q (%v)", sql, norm, again, err)
		}
		if _, nerr := sqlparse.Parse(norm); (perr == nil) != (nerr == nil) {
			t.Fatalf("Parse(%q) err=%v but Parse(Normalize) = Parse(%q) err=%v", sql, perr, norm, nerr)
		}
	})
}
