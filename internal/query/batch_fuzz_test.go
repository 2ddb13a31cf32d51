package query

// FuzzBatchParity: arbitrary statement text, run through engines at
// block sizes 1, 13 and 256, must give the same error text or
// positionally identical rows and identical table contents at every
// size; and whenever both the engine and the reference evaluator accept
// a statement whose answer the reference pins (refComparable), the rows
// and the table contents must match the reference. This is the
// fuzz-shaped face of the reference oracle, seeded with every statement
// family; the CI fuzz job runs it next to the lexer/parser fuzzers.

import (
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/rewrite"
)

// fuzzParityEngines builds fresh engines at block sizes 1, 13 and 256
// plus the reference model over a small fixed dataset. Fresh per call:
// DML inputs mutate state, and corpus entries must reproduce
// independently of execution order.
func fuzzParityEngines() ([]*Engine, *refDB) {
	rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits(oracleAlphabet).Rules())
	seqs := []string{
		"abcd", "abce", "abde", "acbd", "bcda", "cadb",
		"jihg", "jihf", "aaaa", "aaab", "bbbb", "dcba",
		"abcdefgh", "abcdefgi", "hgfedcba",
	}
	model := newRefDB(rs)
	for _, s := range seqs {
		model.rel("words").insert(s, nil, map[string]string{"tag": s[:1]})
	}
	var engines []*Engine
	for _, size := range []int{1, 13, 256} {
		cat := relation.NewCatalog()
		rel := relation.New("words")
		for _, s := range seqs {
			rel.Insert(s, map[string]string{"tag": s[:1]})
		}
		cat.Add(rel)
		e := NewEngine(cat, WithBatchSize(size))
		_ = e.RegisterRuleSet(rs)
		engines = append(engines, e)
	}
	return engines, model
}

// refComparable reports whether the reference pins a statement's
// answer. Two kinds of statement are left to the cross-block-size
// checks alone, each a known engine behaviour the reference does not
// model:
//   - a non-pattern string target outside the rule set's alphabet: the
//     metric indexes compute plain Levenshtein distance, which equals
//     a unit-edit rule set's distance only over its alphabet;
//   - several similarity predicates with dist observed (projected,
//     sorted on, or read in WHERE): which predicate sets dist follows
//     the decided access path or join order.
func refComparable(stmt Statement) bool {
	var where Expr
	observed := false
	switch s := stmt.(type) {
	case *Query:
		where = s.Where
		observed = len(s.Select) == 0 || s.Order != OrderNone
		for _, c := range s.Select {
			observed = observed || c.Name == "dist"
		}
	case *Mutation:
		where = s.Where
	}
	sims, modelled := 0, true
	var walk func(Expr)
	walk = func(ex Expr) {
		switch ex := ex.(type) {
		case AndExpr:
			walk(ex.L)
			walk(ex.R)
		case OrExpr:
			walk(ex.L)
			walk(ex.R)
		case NotExpr:
			walk(ex.E)
		case CmpExpr:
			observed = observed || ex.L.Field.Name == "dist" || ex.R.Field.Name == "dist"
		case SimExpr:
			sims++
			observed = observed || ex.Field.Name == "dist" || ex.Target.Field.Name == "dist"
			if ex.Target.IsLit && !ex.Pattern && strings.Trim(ex.Target.Lit, oracleAlphabet) != "" {
				modelled = false
			}
		case NearestExpr:
			sims++
			if ex.Target.IsLit && strings.Trim(ex.Target.Lit, oracleAlphabet) != "" {
				modelled = false
			}
		}
	}
	walk(where)
	return modelled && (sims <= 1 || !observed)
}

func FuzzBatchParity(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add(`SELECT seq, dist FROM words WHERE seq SIMILAR TO "abcd" WITHIN 2 USING edits ORDER BY dist DESC LIMIT 5`)
	f.Add(`SELECT * FROM words WHERE seq NEAREST 4 TO "abcd" USING edits`)
	f.Add(`SELECT * FROM words WHERE tag NEAREST 3 TO "abcd" USING edits`)
	f.Add(`SELECT * FROM words WHERE NOT (tag = "a") AND seq SIMILAR TO "abcd" WITHIN 3 USING edits`)
	f.Add(`DELETE FROM words WHERE seq SIMILAR TO "abcd" WITHIN 1 USING edits`)
	f.Add(`UPDATE words SET tag = "z" WHERE seq SIMILAR TO "jihg" WITHIN 1 USING edits`)
	// Error-order seeds: the same error text at every block size (the
	// evaluator-level ordering is pinned by TestCompiledPredErrorOrder).
	f.Add(`SELECT seq FROM words WHERE dist SIMILAR TO PATTERN "c*" WITHIN 1 USING nosuch`)
	f.Add(`SELECT seq FROM words WHERE dist SIMILAR TO "x" WITHIN 1 USING nosuch`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 512 {
			return // long inputs only stress the lexer, which FuzzLex owns
		}
		stmt, err := ParseStatement(src)
		if err != nil {
			return
		}
		// EXPLAIN output differs by design (the Vectorize root names the
		// block size), so only execution results are compared.
		explain := false
		switch s := stmt.(type) {
		case *Query:
			explain = s.Explain
		case *Mutation:
			explain = s.Explain
		}
		engines, model := fuzzParityEngines()
		results := make([]*Result, len(engines))
		errs := make([]error, len(engines))
		for i, e := range engines {
			results[i], errs[i] = e.Execute(src)
		}
		for i := 1; i < len(engines); i++ {
			if (errs[0] == nil) != (errs[i] == nil) {
				t.Fatalf("error parity broken for %q: %v vs %v", src, errs[0], errs[i])
			}
			if errs[0] != nil {
				if errs[0].Error() != errs[i].Error() {
					t.Fatalf("error text diverges for %q:\n%v\n%v", src, errs[0], errs[i])
				}
				continue
			}
			if !explain && positional(results[0]) != positional(results[i]) {
				t.Fatalf("rows diverge across block sizes for %q:\n%s\nvs\n%s", src, positional(results[0]), positional(results[i]))
			}
			if engineDump(engines[0], "words") != engineDump(engines[i], "words") {
				t.Fatalf("table contents diverge across block sizes after %q", src)
			}
		}
		if errs[0] != nil || explain || !refComparable(stmt) {
			return
		}
		want, err := model.run(stmt)
		if err != nil {
			return // the reference defines no answer; the engine's checks above still hold
		}
		if err := want.check(results[0]); err != nil {
			t.Fatalf("%q diverges from the reference: %v\ngot:\n%s\nreference:\n%s",
				src, err, positional(results[0]), want)
		}
		if got, wantDump := engineDump(engines[0], "words"), model.rel("words").dump(); got != wantDump {
			t.Fatalf("table contents diverge from the reference after %q:\nengine:\n%s\nreference:\n%s", src, got, wantDump)
		}
	})
}

// TestCompiledPredErrorOrder pins the batch filter's compiled evaluator
// to evalExpr on predicates whose evaluation order decides which error
// surfaces: the field error (dist unavailable) must win over a hoisted
// evaluator error (an unknown rule set) in both.
func TestCompiledPredErrorOrder(t *testing.T) {
	engines, _ := fuzzParityEngines()
	e := engines[0]
	for _, src := range []string{
		`dist SIMILAR TO PATTERN "c*" WITHIN 1 USING nosuch`,
		`dist SIMILAR TO "x" WITHIN 1 USING nosuch`,
		`tag = "q" AND dist SIMILAR TO "x" WITHIN 1 USING nosuch`,
		`tag = "a" OR seq SIMILAR TO "x" WITHIN 1 USING nosuch`,
	} {
		q, err := Parse(`SELECT seq FROM words WHERE ` + src)
		if err != nil {
			t.Fatal(err)
		}
		fn := e.compilePred(q.Where, "words")
		if fn == nil {
			t.Fatalf("%s: compilePred left the predicate uncompiled", src)
		}
		tup := relation.Tuple{ID: 3, Seq: "abcd", Attrs: map[string]string{"tag": "a"}}
		var dist float64
		var has bool
		gotOK, gotErr := fn(&tup, &dist, &has)
		wantOK, wantErr := e.evalExpr(q.Where, newBinding("words", tup))
		if gotOK != wantOK || (gotErr == nil) != (wantErr == nil) ||
			gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: compiled (%v, %v), evalExpr (%v, %v)", src, gotOK, gotErr, wantOK, wantErr)
		}
	}
}
