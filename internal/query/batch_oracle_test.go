package query

// The reference parity oracle for the batch pipeline: for randomized
// datasets, statements, shard counts and block sizes, every engine
// result must be a correct answer under the per-row reference evaluator
// (reference_test.go) — the same rows, in the reference's order wherever
// that order is defined — and the table contents (including assigned
// tuple ids) must match the reference model after every interleaved DML
// batch. Engines that differ only in block size execute the same
// physical decision, so their results must also agree positionally,
// byte for byte, including plan-dependent WITHIN emission order.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/rewrite"
)

// refHarness is a set of engines over the same logical relation —
// one per configuration — plus the reference model.
type refHarness struct {
	engines []*Engine
	model   *refDB
}

// blockSizes returns one engine configuration per block size.
func blockSizes(sizes ...int) [][]Option {
	out := make([][]Option, len(sizes))
	for i, n := range sizes {
		out[i] = []Option{WithBatchSize(n)}
	}
	return out
}

func newRefHarness(t testing.TB, shards int, configs ...[]Option) *refHarness {
	t.Helper()
	rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits(oracleAlphabet).Rules())
	h := &refHarness{model: newRefDB(rs)}
	h.model.rel("words")
	for _, opts := range configs {
		var tab relation.Table
		if shards > 1 {
			tab = relation.NewSharded("words", shards)
		} else {
			tab = relation.New("words")
		}
		cat := relation.NewCatalog()
		cat.Add(tab)
		e := NewEngine(cat, opts...)
		if err := e.RegisterRuleSet(rs); err != nil {
			t.Fatal(err)
		}
		h.engines = append(h.engines, e)
	}
	return h
}

// exec runs one statement on every engine and the model, asserts each
// result against the reference and positional identity across engines,
// and returns the first engine's result.
func (h *refHarness) exec(t *testing.T, stmt string) *Result {
	t.Helper()
	parsed, err := ParseStatement(stmt)
	if err != nil {
		t.Fatalf("%q: %v", stmt, err)
	}
	want, err := h.model.run(parsed)
	if err != nil {
		t.Fatalf("reference %q: %v", stmt, err)
	}
	var first *Result
	for i, e := range h.engines {
		res, err := e.Execute(stmt)
		if err != nil {
			t.Fatalf("engine %d %q: %v", i, stmt, err)
		}
		if err := want.check(res); err != nil {
			t.Fatalf("engine %d %q diverges from the reference: %v\ngot:\n%s\nreference:\n%s\nplan:\n%s",
				i, stmt, err, positional(res), want, res.Plan)
		}
		if first == nil {
			first = res
		} else if positional(res) != positional(first) {
			t.Fatalf("%q: engine %d diverges positionally from engine 0:\n%s\nvs\n%s\nplans:\n%s\n%s",
				stmt, i, positional(res), positional(first), res.Plan, first.Plan)
		}
	}
	return first
}

// checkDump asserts byte-identical table contents (ids included) across
// the engines and the model.
func (h *refHarness) checkDump(t *testing.T) {
	t.Helper()
	want := h.model.rel("words").dump()
	for i, e := range h.engines {
		if got := engineDump(e, "words"); got != want {
			t.Fatalf("engine %d table contents diverge from the reference:\nengine:\n%s\nreference:\n%s", i, got, want)
		}
	}
}

// seedRows inserts the same random rows everywhere in one batch.
func (h *refHarness) seedRows(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	values := make([]string, 0, n)
	for i := 0; i < n; i++ {
		values = append(values, fmt.Sprintf("(%q, %q)", randOracleSeq(rng), string(oracleAlphabet[rng.Intn(3)])))
	}
	h.exec(t, "INSERT INTO words (seq, tag) VALUES "+strings.Join(values, ", "))
	h.checkDump(t)
}

// randBatchStmt draws one random read statement covering every access
// family and decorator the engine implements: WITHIN at the radii that
// cross the index/scan cost boundary, NEAREST, residual equality
// filters, OR/NOT shapes, pattern similarity, the dist pseudo-field,
// ORDER BY in both directions and LIMIT with and without it.
func randBatchStmt(rng *rand.Rand) string {
	target := randOracleSeq(rng)
	tag := string(oracleAlphabet[rng.Intn(3)])
	switch rng.Intn(10) {
	case 0:
		return "SELECT * FROM words"
	case 1:
		return fmt.Sprintf(`SELECT * FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits`, target, rng.Intn(4))
	case 2:
		return fmt.Sprintf(`SELECT seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits AND tag = %q`,
			target, rng.Intn(4), tag)
	case 3:
		dir := "ASC"
		if rng.Intn(2) == 0 {
			dir = "DESC"
		}
		return fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits ORDER BY dist %s LIMIT %d`,
			target, 1+rng.Intn(3), dir, 1+rng.Intn(20))
	case 4:
		return fmt.Sprintf(`SELECT * FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits LIMIT %d`,
			target, rng.Intn(4), 1+rng.Intn(8))
	case 5:
		return fmt.Sprintf(`SELECT seq, dist FROM words WHERE seq NEAREST %d TO %q USING edits`, 1+rng.Intn(12), target)
	case 6:
		return fmt.Sprintf(`SELECT * FROM words WHERE tag != %q LIMIT %d`, tag, 1+rng.Intn(10))
	case 7:
		return fmt.Sprintf(`SELECT * FROM words WHERE NOT (tag = %q) OR seq SIMILAR TO %q WITHIN 1 USING edits`, tag, target)
	case 8:
		return fmt.Sprintf(`SELECT seq FROM words WHERE seq SIMILAR TO PATTERN "a(b|c)*d" WITHIN %d USING edits`, rng.Intn(3))
	default:
		return fmt.Sprintf(`SELECT seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN 3 USING edits AND dist != "2"`, target)
	}
}

// applyRandomDML runs one random mutation everywhere.
func (h *refHarness) applyRandomDML(t *testing.T, rng *rand.Rand) {
	t.Helper()
	target := randOracleSeq(rng)
	switch rng.Intn(4) {
	case 0:
		h.exec(t, fmt.Sprintf("INSERT INTO words (seq, tag) VALUES (%q, %q)",
			randOracleSeq(rng), string(oracleAlphabet[rng.Intn(3)])))
	case 1:
		h.exec(t, fmt.Sprintf(`DELETE FROM words WHERE seq SIMILAR TO %q WITHIN 1 USING edits`, target))
	case 2:
		rows := h.model.rel("words").rows
		if len(rows) == 0 {
			return
		}
		h.exec(t, fmt.Sprintf(`DELETE FROM words WHERE id = "%d"`, rows[rng.Intn(len(rows))].ID))
	case 3:
		h.exec(t, fmt.Sprintf(`UPDATE words SET seq = %q WHERE seq SIMILAR TO %q WITHIN 1 USING edits`,
			randOracleSeq(rng), target))
	}
}

// runRandomWorkload seeds the harness and runs generations of random
// DML and reads, checking table contents after every generation.
func (h *refHarness) runRandomWorkload(t *testing.T, rng *rand.Rand) {
	t.Helper()
	h.seedRows(t, rng, 150)
	for gen := 0; gen < 5; gen++ {
		for i := 0; i < 8; i++ {
			h.applyRandomDML(t, rng)
		}
		h.checkDump(t)
		for i := 0; i < 10; i++ {
			h.exec(t, randBatchStmt(rng))
		}
		// Repeat one statement so the second run exercises the plan-cache
		// hit path's decision -> tree rebuild.
		stmt := randBatchStmt(rng)
		h.exec(t, stmt)
		h.exec(t, stmt)
	}
}

// TestBatchRowParityOracle is the main property test: shard counts 1
// and 4 crossed with block sizes 1, 64 and 256, random reads checked
// against the per-row reference evaluator with interleaved DML, table
// contents compared after every mutation generation.
func TestBatchRowParityOracle(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, size := range []int{1, 64, 256} {
			shards, size := shards, size
			t.Run(fmt.Sprintf("shards=%d/batch=%d", shards, size), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*shards + size)))
				newRefHarness(t, shards, blockSizes(size)...).runRandomWorkload(t, rng)
			})
		}
	}
}

// TestBatchBlockSizeIdentity runs one random workload through engines
// at block sizes 1, 13 (partial-block edges everywhere) and 256 side by
// side: the same decision at every size, so results must agree
// positionally, byte for byte, besides each matching the reference.
func TestBatchBlockSizeIdentity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(300 + shards)))
			newRefHarness(t, shards, blockSizes(1, 13, 256)...).runRandomWorkload(t, rng)
		})
	}
}

// TestBatchParityParallel crosses the pipeline with the parallel-scan
// machinery: a 4-worker engine (Parallel for unsharded plans, the
// gather pool for sharded ones) must match a serial engine positionally
// and the reference.
func TestBatchParityParallel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(77 + shards)))
			h := newRefHarness(t, shards,
				[]Option{WithBatchSize(32), WithParallelism(4), WithParallelMinRows(1)},
				[]Option{WithBatchSize(32), WithParallelism(1)})
			h.seedRows(t, rng, 200)
			for i := 0; i < 30; i++ {
				h.exec(t, randBatchStmt(rng))
			}
		})
	}
}

// TestBatchParityPrepared drives the prepared-statement path: one
// template, many bindings, with the memoised decision reused across
// executions; every execution must match the reference for the bound
// statement text.
func TestBatchParityPrepared(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newRefHarness(t, 1, blockSizes(64)...)
	h.seedRows(t, rng, 120)

	const tmpl = `SELECT seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN ? USING edits ORDER BY dist LIMIT ?`
	pq, err := h.engines[0].Prepare(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		target, radius, limit := randOracleSeq(rng), rng.Intn(4), 1+rng.Intn(10)
		res, err := pq.Execute(target, radius, limit)
		if err != nil {
			t.Fatalf("prepared: %v", err)
		}
		stmt, err := ParseStatement(fmt.Sprintf(
			`SELECT seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits ORDER BY dist LIMIT %d`,
			target, radius, limit))
		if err != nil {
			t.Fatal(err)
		}
		want, err := h.model.run(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.check(res); err != nil {
			t.Fatalf("prepared (%q, %d, %d) diverges from the reference: %v\ngot:\n%s\nreference:\n%s",
				target, radius, limit, err, positional(res), want)
		}
	}
	if st := pq.Stats(); st.PlanReuses == 0 {
		t.Fatalf("prepared query never reused a decision: %+v", st)
	}
}

// TestBatchParityConcurrentDML runs reads against live concurrent
// writers — the serving pattern — primarily for the race detector (the
// targeted -race CI step runs 'Batch' tests); once the writer quiesces,
// the engine must match the reference byte for byte again.
func TestBatchParityConcurrentDML(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := newRefHarness(t, 4, blockSizes(64)...)
	h.seedRows(t, rng, 150)
	e := h.engines[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var written []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Spell i in the rule-set alphabet: the metric indexes compute
			// plain Levenshtein distance, which equals the rule set's only
			// over its alphabet.
			seq := []byte(strconv.Itoa(i) + "aceb")
			for j, c := range seq {
				if c >= '0' && c <= '9' {
					seq[j] = oracleAlphabet[c-'0']
				}
			}
			stmt := fmt.Sprintf("INSERT INTO words (seq, tag) VALUES (%q, %q)", seq, "1")
			if _, err := e.Execute(stmt); err != nil {
				t.Error(err)
				return
			}
			written = append(written, stmt)
		}
	}()
	queries := []string{
		`SELECT * FROM words WHERE seq SIMILAR TO "acebd" WITHIN 2 USING edits`,
		`SELECT seq, dist FROM words WHERE seq NEAREST 5 TO "acebd" USING edits`,
		`SELECT * FROM words WHERE tag != "1" LIMIT 4`,
	}
	for i := 0; i < 60; i++ {
		if _, err := e.Execute(queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, s := range written {
		stmt, err := ParseStatement(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.model.run(stmt); err != nil {
			t.Fatal(err)
		}
	}
	h.checkDump(t)
	for _, q := range queries {
		h.exec(t, q)
	}
}
