package query

// The sharding oracle: for randomized datasets, statements and shard
// counts, a sharded engine must be indistinguishable from (a) the
// unsharded engine and (b) the reference evaluator (reference_test.go).
//
// Identity is byte-level. NEAREST results and full-table dumps have an
// engine-defined total order ((dist, id) and ascending id), so they are
// compared positionally, byte for byte. WITHIN result order is
// plan-dependent (an index traversal emits matches in tree order, a
// scan in id order — true already for the unsharded engine), so WITHIN
// results are compared as canonically-encoded row sets: sorted rows
// joined into one byte string, equal iff the encodings are identical.
// DML must leave both engines with byte-identical table contents —
// including assigned tuple ids — after every statement batch.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/rewrite"
)

// oracleAlphabet keeps distances small and collisions (interesting
// ties) frequent.
const oracleAlphabet = "abcdefghij"

// oraclePair is one unsharded/sharded engine pair over the same logical
// relation plus the reference model.
type oraclePair struct {
	plain   *Engine
	sharded *Engine
	model   *refDB
}

func newOraclePair(t *testing.T, shards int) *oraclePair {
	t.Helper()
	rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits(oracleAlphabet).Rules())
	mk := func(tab relation.Table) *Engine {
		cat := relation.NewCatalog()
		cat.Add(tab)
		e := NewEngine(cat)
		if err := e.RegisterRuleSet(rs); err != nil {
			t.Fatal(err)
		}
		return e
	}
	p := &oraclePair{
		plain:   mk(relation.New("words")),
		sharded: mk(relation.NewSharded("words", shards)),
		model:   newRefDB(rs),
	}
	p.model.rel("words")
	return p
}

// exec runs one statement on both engines and the reference model and
// asserts every engine result is a correct reference answer.
func (p *oraclePair) exec(t *testing.T, stmt string) (plain, sharded *Result) {
	t.Helper()
	parsed, err := ParseStatement(stmt)
	if err != nil {
		t.Fatalf("%q: %v", stmt, err)
	}
	want, err := p.model.run(parsed)
	if err != nil {
		t.Fatalf("reference %q: %v", stmt, err)
	}
	for _, e := range []*Engine{p.plain, p.sharded} {
		res, err := e.Execute(stmt)
		if err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		if err := want.check(res); err != nil {
			t.Fatalf("%q diverges from the reference: %v\ngot:\n%s\nreference:\n%s\nplan:\n%s",
				stmt, err, positional(res), want, res.Plan)
		}
		if e == p.plain {
			plain = res
		} else {
			sharded = res
		}
	}
	return plain, sharded
}

// checkTableParity asserts byte-identical table contents across both
// engines and the model.
func (p *oraclePair) checkTableParity(t *testing.T) {
	t.Helper()
	plain, sharded, model := engineDump(p.plain, "words"), engineDump(p.sharded, "words"), p.model.rel("words").dump()
	if plain != sharded {
		t.Fatalf("table contents diverge:\nunsharded:\n%s\nsharded:\n%s", plain, sharded)
	}
	if plain != model {
		t.Fatalf("engines diverge from the reference:\nengine:\n%s\nreference:\n%s", plain, model)
	}
}

// canonical encodes a result's rows as a sorted byte string; two result
// sets are equal iff their canonical encodings are byte-identical.
func canonical(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// positional encodes a result's rows in emitted order.
func positional(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = strings.Join(r, "\x1f")
	}
	return strings.Join(rows, "\n")
}

func randOracleSeq(rng *rand.Rand) string {
	b := make([]byte, 2+rng.Intn(7))
	for i := range b {
		b[i] = oracleAlphabet[rng.Intn(len(oracleAlphabet))]
	}
	return string(b)
}

// TestShardOracleParity is the main oracle property test: randomized
// datasets, queries and DML over shard counts 1, 2, 4 and 7, with both
// engines checked against the reference model after every statement
// and the sharded engine checked byte-for-byte against the unsharded
// one wherever the order is engine-defined.
func TestShardOracleParity(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + shards)))
			p := newOraclePair(t, shards)

			var values []string
			for i := 0; i < 150; i++ {
				values = append(values, fmt.Sprintf("(%q, %q)", randOracleSeq(rng), string(oracleAlphabet[rng.Intn(3)])))
			}
			p.exec(t, "INSERT INTO words (seq, tag) VALUES "+strings.Join(values, ", "))
			p.checkTableParity(t)

			for gen := 0; gen < 6; gen++ {
				// A batch of random DML.
				for i := 0; i < 10; i++ {
					switch rng.Intn(4) {
					case 0: // insert
						p.exec(t, fmt.Sprintf("INSERT INTO words (seq, tag) VALUES (%q, %q)",
							randOracleSeq(rng), string(oracleAlphabet[rng.Intn(3)])))
					case 1: // predicate delete (exercises the read plan)
						p.exec(t, fmt.Sprintf(`DELETE FROM words WHERE seq SIMILAR TO %q WITHIN 1 USING edits`, randOracleSeq(rng)))
					case 2: // delete by id
						rows := p.model.rel("words").rows
						if len(rows) == 0 {
							continue
						}
						p.exec(t, fmt.Sprintf(`DELETE FROM words WHERE id = "%d"`, rows[rng.Intn(len(rows))].ID))
					case 3: // predicate update (fresh-id assignment parity)
						p.exec(t, fmt.Sprintf(`UPDATE words SET seq = %q WHERE seq SIMILAR TO %q WITHIN 1 USING edits`,
							randOracleSeq(rng), randOracleSeq(rng)))
					}
				}
				p.checkTableParity(t)

				// WITHIN (set identity), ORDER BY dist (sorted by the
				// reference's distances) and LIMIT (a subset of the
				// reference's matches at the right cardinality).
				for i := 0; i < 4; i++ {
					stmt := fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits`,
						randOracleSeq(rng), rng.Intn(3))
					a, b := p.exec(t, stmt)
					if canonical(a) != canonical(b) {
						t.Fatalf("WITHIN diverges for %q:\nunsharded:\n%s\nsharded:\n%s", stmt, canonical(a), canonical(b))
					}
					p.exec(t, stmt+" ORDER BY dist")
					p.exec(t, fmt.Sprintf("%s LIMIT %d", stmt, 1+rng.Intn(4)))
				}

				// NEAREST: positional byte identity — the (dist, id) order is
				// engine-defined, so sharded, unsharded and reference agree
				// on every byte including order.
				for i := 0; i < 4; i++ {
					stmt := fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq NEAREST %d TO %q USING edits`,
						1+rng.Intn(8), randOracleSeq(rng))
					a, b := p.exec(t, stmt)
					if positional(a) != positional(b) {
						t.Fatalf("NEAREST diverges for %q:\nunsharded:\n%s\nsharded:\n%s", stmt, positional(a), positional(b))
					}
				}
			}
		})
	}
}

// TestShardOracleInterleavedWrites runs the same deterministic write
// stream through each engine's single writer while concurrent readers
// hammer snapshot queries, then asserts the engines and the reference
// converge to byte-identical state. Under -race this also proves the
// scatter-gather path is data-race free against live mutation.
func TestShardOracleInterleavedWrites(t *testing.T) {
	for _, shards := range []int{2, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 * shards)))
			p := newOraclePair(t, shards)

			// Deterministic statement stream.
			var steps []string
			for i := 0; i < 120; i++ {
				switch rng.Intn(3) {
				case 0, 1:
					steps = append(steps, fmt.Sprintf("INSERT INTO words (seq, tag) VALUES (%q, %q)",
						randOracleSeq(rng), string(oracleAlphabet[rng.Intn(3)])))
				case 2:
					steps = append(steps, fmt.Sprintf(`DELETE FROM words WHERE seq SIMILAR TO %q WITHIN 1 USING edits`,
						randOracleSeq(rng)))
				}
			}

			var wg sync.WaitGroup
			writeErr := make(chan error, 2)
			for _, eng := range []*Engine{p.plain, p.sharded} {
				eng := eng
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, s := range steps {
						if _, err := eng.Execute(s); err != nil {
							writeErr <- fmt.Errorf("%q: %w", s, err)
							return
						}
					}
				}()
			}
			queries := []string{
				`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO "abab" WITHIN 2 USING edits`,
				`SELECT id, seq, dist FROM words WHERE seq NEAREST 5 TO "cdcd" USING edits`,
				`SELECT id, seq FROM words`,
			}
			readErr := make(chan error, 4)
			for r := 0; r < 4; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					eng := p.sharded
					if r%2 == 0 {
						eng = p.plain
					}
					for i := 0; i < 60; i++ {
						if _, err := eng.Execute(queries[i%len(queries)]); err != nil {
							readErr <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(writeErr)
			close(readErr)
			if err := <-writeErr; err != nil {
				t.Fatal(err)
			}
			if err := <-readErr; err != nil {
				t.Fatal(err)
			}
			for _, s := range steps {
				stmt, err := ParseStatement(s)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.model.run(stmt); err != nil {
					t.Fatalf("reference %q: %v", s, err)
				}
			}
			p.checkTableParity(t)
			for _, q := range queries {
				p.exec(t, q)
			}
		})
	}
}
