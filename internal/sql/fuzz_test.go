package sql

// Native Go fuzz targets for the SQL front door — the service layer
// exposes ParseQuery/ParseQueries to untrusted network input, so the
// parser must never panic and every failure must be a positioned
// *Error. The seed corpus covers every production in the dialect
// (each aggregate, qualified columns, multi-aggregate lists, absolute
// and relative WITHIN, every comparison operator, AND/OR/NOT/parens,
// GROUP BY lists, multi-statement fragments) plus known tripwires
// (exponents, signed numbers, '%', unicode, keywords as identifiers).
//
// Checked invariants, per input:
//
//  1. no panic (the fuzzer's implicit property);
//  2. every error is a *sql.Error with 0 ≤ Pos ≤ len(src);
//  3. accepted queries are well-formed: the table resolves in the
//     catalog, columns exist, constraints are non-negative and non-NaN,
//     grouping columns are exact;
//  4. accepted queries round-trip: rendering with Query.String() parses
//     again to the same query (RelativeWithin compared approximately —
//     it is stored divided by 100 and re-rendered multiplied back).
//
// CI runs both targets under -fuzz for a short smoke window on every
// push; `go test` alone replays the seeds and testdata/fuzz corpus.

import (
	"errors"
	"math"
	"testing"

	"trapp/internal/query"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

// fuzzCatalog is the fixed schema fuzz inputs parse against: bounded
// measurement columns and exact dimension columns, two tables.
var fuzzCatalog = MapCatalog{
	"t": relation.NewSchema(
		relation.Column{Name: "g", Kind: relation.Exact},
		relation.Column{Name: "h", Kind: relation.Exact},
		relation.Column{Name: "v", Kind: relation.Bounded},
		relation.Column{Name: "w", Kind: relation.Bounded},
	),
	"links": relation.NewSchema(
		relation.Column{Name: "from", Kind: relation.Exact},
		relation.Column{Name: "latency", Kind: relation.Bounded},
	),
}

// The scale workload's SQL runs against multi-tenant tables
// (tenant_0, tenant_1, …) with the shared scale schema; register the
// ones its corpus sample references so those shapes parse instead of
// failing on table resolution.
func init() {
	for t := 0; t < 4; t++ {
		fuzzCatalog[workload.TenantName(t)] = workload.ScaleSchema()
	}
}

// scaleCorpus is the deterministic sample of the scale workload's SQL
// shapes (underscored tenant names, tight and relative WITHIN, GROUP BY
// over the exact region column) seeded alongside the hand-written
// corpus.
var scaleCorpus = workload.ScaleCorpus()

// corpus seeds cover every production of the grammar plus error shapes.
var corpus = []string{
	// Every aggregate, bare and qualified.
	"SELECT MIN(v) FROM t",
	"SELECT MAX(v) FROM t",
	"SELECT SUM(t.v) FROM t",
	"SELECT AVG(w) FROM t",
	"SELECT COUNT(v) FROM t",
	// Precision constraints: absolute, relative, fractional, exponent.
	"SELECT SUM(v) WITHIN 5 FROM t",
	"SELECT SUM(v) WITHIN 0.25 FROM t",
	"SELECT SUM(v) WITHIN 2.5e3 FROM t",
	"SELECT AVG(v) WITHIN 5% FROM t",
	"SELECT AVG(v) WITHIN 0 FROM t",
	// Multi-aggregate select lists.
	"SELECT MIN(v), MAX(v) WITHIN 5 FROM t",
	"SELECT MIN(v), MAX(w), AVG(v), SUM(w), COUNT(v) FROM t",
	// Predicates: every operator, both operand orders, logic, parens.
	"SELECT SUM(v) FROM t WHERE v < 10",
	"SELECT SUM(v) FROM t WHERE v <= 10",
	"SELECT SUM(v) FROM t WHERE v > 10",
	"SELECT SUM(v) FROM t WHERE v >= 10",
	"SELECT SUM(v) FROM t WHERE v = 10",
	"SELECT SUM(v) FROM t WHERE v <> 10",
	"SELECT SUM(v) FROM t WHERE v != 10",
	"SELECT SUM(v) FROM t WHERE 10 < v",
	"SELECT SUM(v) FROM t WHERE v < w",
	"SELECT SUM(v) FROM t WHERE v < -5",
	"SELECT SUM(v) FROM t WHERE v > 1 AND w < 2",
	"SELECT SUM(v) FROM t WHERE v > 1 OR NOT (w < 2 AND g = 1)",
	"SELECT SUM(v) FROM t WHERE ((v > 1))",
	// GROUP BY, single and multi.
	"SELECT AVG(v) FROM t GROUP BY g",
	"SELECT AVG(v) WITHIN 2 FROM t WHERE w > 0 GROUP BY g, h",
	// Case-insensitive keywords; keyword-named exact column.
	"select sum(v) within 5 from t where v < 10 group by g",
	"SELECT MAX(latency) FROM links WHERE from = 3",
	"SELECT MAX(latency) FROM links WHERE from < 3",
	"SELECT MAX(latency) FROM links WHERE links.from = 1",
	// Error shapes: each should fail with a positioned error.
	"",
	"SELECT",
	"SELECT FROG(v) FROM t",
	"SELECT SUM(v) FROM nope",
	"SELECT SUM(nope) FROM t",
	"SELECT SUM(v) WITHIN -1 FROM t",
	"SELECT SUM(v) WITHIN x FROM t",
	"SELECT SUM(v) FROM t WHERE",
	"SELECT SUM(v) FROM t WHERE v <",
	"SELECT SUM(v) FROM t WHERE AND > 1", // keyword that is no column
	"SELECT SUM(v) FROM t GROUP BY v",    // bounded grouping column
	"SELECT SUM(v) FROM t trailing",
	"SELECT SUM(v), FROM t",
	"SELECT SUM(v) FROM t; SELECT MIN(v) FROM t", // ';' is the server's job
	"SELECT SUM(v) WITHIN 1e999 FROM t",          // overflowing constraint
	"SELECT SUM(v) WITHIN 5%% FROM t",
	"SELECT SUM(v.) FROM t",
	"SELECT SUM(links.v) FROM t", // qualifier disagrees with FROM
	"SELECT SUM(v) FROM t WHERE v ≤ 10",
	"SELECT SÜM(v) FROM t",
	"SELECT SUM(v) FROM t WHERE v < 1.2.3",
	"SELECT SUM(v) FROM t WHERE v < 10e",
	"(SELECT SUM(v) FROM t)",
}

// checkParseInvariants validates one ParseAll outcome against the
// properties above, returning the parsed queries for extra checks.
func checkParseInvariants(t *testing.T, src string, qs []query.Query, err error) {
	t.Helper()
	if err != nil {
		var se *Error
		if !errors.As(err, &se) {
			t.Fatalf("error is %T, not *sql.Error: %v (input %q)", err, err, src)
		}
		if se.Pos < 0 || se.Pos > len(src) {
			t.Fatalf("error position %d outside input of length %d (input %q)", se.Pos, len(src), src)
		}
		if se.Msg == "" {
			t.Fatalf("empty error message (input %q)", src)
		}
		return
	}
	if len(qs) == 0 {
		t.Fatalf("no error and no queries (input %q)", src)
	}
	for _, q := range qs {
		schema, ok := fuzzCatalog.SchemaOf(q.Table)
		if !ok {
			t.Fatalf("accepted unknown table %q (input %q)", q.Table, src)
		}
		if _, ok := schema.Lookup(q.Column); !ok {
			t.Fatalf("accepted unknown column %q.%q (input %q)", q.Table, q.Column, src)
		}
		if q.Within < 0 || math.IsNaN(q.Within) {
			t.Fatalf("accepted invalid constraint %g (input %q)", q.Within, src)
		}
		if q.RelativeWithin < 0 || math.IsNaN(q.RelativeWithin) || math.IsInf(q.RelativeWithin, 0) {
			t.Fatalf("accepted invalid relative constraint %g (input %q)", q.RelativeWithin, src)
		}
		for _, g := range q.GroupBy {
			ci, ok := schema.Lookup(g)
			if !ok || schema.Column(ci).Kind != relation.Exact {
				t.Fatalf("accepted bad grouping column %q (input %q)", g, src)
			}
		}
		checkRoundTrip(t, src, q)
	}
}

// checkRoundTrip renders an accepted query back to SQL and re-parses
// it; the grammar and Query.String are mutually inverse up to the
// relative-constraint scaling.
func checkRoundTrip(t *testing.T, src string, q query.Query) {
	t.Helper()
	rendered := q.String()
	back, err := Parse(rendered, fuzzCatalog)
	if err != nil {
		t.Fatalf("accepted query %q renders as %q which does not parse: %v", src, rendered, err)
	}
	same := back.Table == q.Table && back.Agg == q.Agg && back.Column == q.Column &&
		(back.Within == q.Within || (math.IsInf(back.Within, 1) && math.IsInf(q.Within, 1))) &&
		len(back.GroupBy) == len(q.GroupBy)
	for i := range q.GroupBy {
		same = same && back.GroupBy[i] == q.GroupBy[i]
	}
	// RelativeWithin is stored ÷100 and rendered ×100; compare loosely.
	if d := math.Abs(back.RelativeWithin - q.RelativeWithin); d > 1e-12*(1+math.Abs(q.RelativeWithin)) {
		same = false
	}
	wantWhere, gotWhere := "TRUE", "TRUE"
	if q.Where != nil {
		wantWhere = q.Where.String()
	}
	if back.Where != nil {
		gotWhere = back.Where.String()
	}
	if !same || wantWhere != gotWhere {
		t.Fatalf("round trip changed the query:\n  input    %q\n  parsed   %v\n  rendered %q\n  reparsed %v", src, q, rendered, back)
	}
}

func FuzzParseAll(f *testing.F) {
	for _, s := range corpus {
		f.Add(s)
	}
	for _, s := range scaleCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		qs, err := ParseAll(src, fuzzCatalog)
		checkParseInvariants(t, src, qs, err)
	})
}

func FuzzParseQuery(f *testing.F) {
	for _, s := range corpus {
		f.Add(s)
	}
	for _, s := range scaleCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src, fuzzCatalog)
		if err != nil {
			checkParseInvariants(t, src, nil, err)
			return
		}
		checkParseInvariants(t, src, []query.Query{q}, nil)
	})
}

// TestCorpusSeeds replays every seed through both entry points in a
// plain `go test` run, so the corpus invariants hold even where -fuzz
// is unavailable.
func TestCorpusSeeds(t *testing.T) {
	for _, src := range append(append([]string{}, corpus...), scaleCorpus...) {
		qs, err := ParseAll(src, fuzzCatalog)
		checkParseInvariants(t, src, qs, err)
		q, err := Parse(src, fuzzCatalog)
		if err == nil {
			checkParseInvariants(t, src, []query.Query{q}, nil)
		}
	}
}
