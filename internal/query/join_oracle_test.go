package query

// The distance-join oracle: every join algorithm — nested loop, index
// (BK-tree and VP-tree) and partition — at block sizes 1, 13 and 256,
// unsharded and as the sharded broadcast variant, must produce the same
// result as a brute-force double loop over the same data. Each
// configuration pins its algorithm and asserts it in EXPLAIN.
//
// Results are compared as canonically-encoded row sets against the
// brute-force model. The configurations pledge more: every algorithm
// emits in outer order with inner matches in ascending id, the block
// size changes no decision and the sharded gather restores the
// unsharded order, so all configurations are also compared
// positionally, byte for byte — including assigned dist strings, which
// the metric layer's determinism contract makes bitwise-stable across
// kernels.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// joinOracle holds the catalogs of one unsharded and one sharded copy
// of the same rows (ids 0..n-1 assigned in order on both layouts);
// engines for each configuration are views over them.
type joinOracle struct {
	plain, sharded *relation.Catalog
}

// joinAlgoOp names the EXPLAIN label of each join algorithm.
var joinAlgoOp = map[string]string{"nl": "NestedLoopJoin(", "index": "IndexJoin(", "partition": "PartitionJoin("}

// runPinned executes a statement (EXPLAIN and EXPLAIN ANALYZE included)
// with every join step of the planner's decision rewritten to algo
// before the operator tree is built — the cost model alone almost never
// picks the index join. algo must be legal for every edge; "" keeps the
// decided algorithms.
func runPinned(e *Engine, stmt, algo string) (*Result, error) {
	q, err := Parse(stmt)
	if err != nil {
		return nil, err
	}
	d, err := e.decide(q)
	if err != nil {
		return nil, err
	}
	if algo != "" {
		for i := range d.steps {
			d.steps[i].algo = algo
		}
	}
	plan, err := e.buildPlan(q, d)
	if err != nil {
		return nil, err
	}
	return e.finishPlan(q, plan)
}

// halvesRules is a symmetric weighted rule set (every op costs 0.5, no
// unit-cost shortcut), forcing the nested-loop join path in every mode.
func halvesRules() *rewrite.RuleSet {
	return rewrite.MustRuleSet("halves", []rewrite.Rule{
		rewrite.Subst('a', 'b', 0.5), rewrite.Subst('b', 'a', 0.5),
		rewrite.Insert('c', 0.5), rewrite.Delete('c', 0.5),
	})
}

// growRules is an asymmetric weighted rule set: 'c' can be inserted
// and 'a' rewritten to 'b', never the reverse, so d(x, y) != d(y, x)
// and a nested loop must keep the predicate's operand order.
func growRules() *rewrite.RuleSet {
	return rewrite.MustRuleSet("grow", []rewrite.Rule{
		rewrite.Insert('c', 0.5), rewrite.Subst('a', 'b', 0.5),
	})
}

func newJoinOracle(shards int, rows []relation.InsertRow) *joinOracle {
	plainTab := relation.New("words")
	plainTab.InsertBatch(rows)
	shardTab := relation.NewSharded("words", shards)
	shardTab.InsertBatch(rows)
	o := &joinOracle{plain: relation.NewCatalog(), sharded: relation.NewCatalog()}
	o.plain.Add(plainTab)
	o.sharded.Add(shardTab)
	return o
}

// joinEngine returns an engine over one of the catalogs at the given
// block size.
func joinEngine(t testing.TB, cat *relation.Catalog, size int) *Engine {
	t.Helper()
	e := NewEngine(cat, WithBatchSize(size))
	if err := e.RegisterRuleSet(rewrite.MustRuleSet("edits", rewrite.UnitEdits(oracleAlphabet).Rules())); err != nil {
		t.Fatal(err)
	}
	for _, rs := range []*rewrite.RuleSet{halvesRules(), growRules()} {
		if err := e.RegisterRuleSet(rs); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// joinOracleRows builds n rows with short random seqs (dense edit-
// distance collisions), random 3-d vectors and a rotating tag; every
// seventh row has no vector, pinning the nil-vec no-match rule.
func joinOracleRows(rng *rand.Rand, n int) []relation.InsertRow {
	rows := make([]relation.InsertRow, n)
	for i := range rows {
		rows[i] = relation.InsertRow{
			Seq:   randOracleSeq(rng),
			Attrs: map[string]string{"tag": fmt.Sprint(i % 3)},
		}
		if i%7 != 0 {
			v := make(metric.Vector, 3)
			for j := range v {
				v[j] = float32(rng.Float64()*2 - 1)
			}
			rows[i].Vec = v
		}
	}
	return rows
}

// checkJoin runs stmt under every listed join algorithm at block sizes
// 1, 13 and 256 on the unsharded and the sharded catalog, asserting
// the algorithm in EXPLAIN, canonical identity with the brute-force
// row set, and positional identity across all configurations.
func (o *joinOracle) checkJoin(t *testing.T, stmt string, want []string, algos ...string) {
	t.Helper()
	wantRes := &Result{}
	for _, w := range want {
		wantRes.Rows = append(wantRes.Rows, strings.Split(w, "\x1f"))
	}
	var first *Result
	for _, algo := range algos {
		for _, size := range []int{1, 13, 256} {
			for _, cat := range []*relation.Catalog{o.plain, o.sharded} {
				cfg := fmt.Sprintf("algo=%s batch=%d sharded=%v", algo, size, cat == o.sharded)
				res, err := runPinned(joinEngine(t, cat, size), stmt, algo)
				if err != nil {
					t.Fatalf("%s %q: %v", cfg, stmt, err)
				}
				for a, op := range joinAlgoOp {
					if strings.Contains(res.Plan, op) != (a == algo) {
						t.Fatalf("%s %q: plan does not run the pinned join:\n%s", cfg, stmt, res.Plan)
					}
				}
				if canonical(res) != canonical(wantRes) {
					t.Fatalf("%s join diverges from the brute force for %q:\ngot:\n%s\nwant:\n%s",
						cfg, stmt, canonical(res), canonical(wantRes))
				}
				if first == nil {
					first = res
				} else if positional(res) != positional(first) {
					t.Fatalf("%s join diverges byte-wise for %q:\ngot:\n%s\nfirst configuration:\n%s",
						cfg, stmt, positional(res), positional(first))
				}
			}
		}
	}
}

// TestJoinOracleEdits covers the edit-distance join strategies: unit
// radius (partition/index eligible), a residual-filtered radius-2 join,
// the weighted nested-loop fallback, and a three-way chain.
func TestJoinOracleEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows := joinOracleRows(rng, 80)
	calc, err := editdp.New(halvesRules())
	if err != nil {
		t.Fatal(err)
	}
	grow, err := editdp.New(growRules())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		p := newJoinOracle(shards, rows)
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var want []string
			for ai, a := range rows {
				for bi, b := range rows {
					if d, ok := editdp.LevenshteinWithin(a.Seq, b.Seq, 1); ok {
						want = append(want, fmt.Sprintf("%d\x1f%d\x1f%s", ai, bi, formatDist(float64(d))))
					}
				}
			}
			p.checkJoin(t,
				`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits`,
				want, "nl", "index", "partition")

			want = want[:0]
			for ai, a := range rows {
				if a.Attrs["tag"] != "0" {
					continue
				}
				for bi, b := range rows {
					if ai == bi {
						continue
					}
					if _, ok := editdp.LevenshteinWithin(a.Seq, b.Seq, 2); ok {
						want = append(want, fmt.Sprintf("%d\x1f%d", ai, bi))
					}
				}
			}
			p.checkJoin(t,
				`SELECT a.id, b.id FROM words a, words b ON dist(a.seq, b.seq) <= 2 USING edits WHERE a.tag = "0" AND a.id != b.id`,
				want, "nl", "index", "partition")

			want = want[:0]
			for ai, a := range rows {
				for bi, b := range rows {
					if ai == bi {
						continue
					}
					if _, ok := calc.Within(a.Seq, b.Seq, 1); ok {
						want = append(want, fmt.Sprintf("%d\x1f%d", ai, bi))
					}
				}
			}
			p.checkJoin(t,
				`SELECT a.id, b.id FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING halves WHERE a.id != b.id`,
				want, "nl")

			// The asymmetric rule set in both operand orders: the probe (the
			// start relation a) is the field operand, then the target.
			for _, stmt := range []string{
				`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING grow WHERE a.id != b.id`,
				`SELECT a.id, b.id, dist FROM words a, words b ON dist(b.seq, a.seq) <= 1 USING grow WHERE a.id != b.id`,
			} {
				probeIsField := strings.Contains(stmt, "dist(a.seq")
				want = want[:0]
				for ai, a := range rows {
					for bi, b := range rows {
						if ai == bi {
							continue
						}
						x, y := b.Seq, a.Seq
						if probeIsField {
							x, y = a.Seq, b.Seq
						}
						if d, ok := grow.Within(x, y, 1); ok {
							want = append(want, fmt.Sprintf("%d\x1f%d\x1f%s", ai, bi, formatDist(d)))
						}
					}
				}
				if len(want) == 0 {
					t.Fatalf("%s: the brute force found no pairs; the case checks nothing", stmt)
				}
				p.checkJoin(t, stmt, want, "nl")
			}

			want = want[:0]
			for ai, a := range rows {
				for bi, b := range rows {
					if _, ok := editdp.LevenshteinWithin(a.Seq, b.Seq, 1); !ok {
						continue
					}
					for ci, c := range rows {
						if _, ok := editdp.LevenshteinWithin(b.Seq, c.Seq, 1); ok {
							want = append(want, fmt.Sprintf("%d\x1f%d\x1f%d", ai, bi, ci))
						}
					}
				}
			}
			p.checkJoin(t,
				`SELECT a.id, b.id, c.id FROM words a, words b, words c ON dist(a.seq, b.seq) <= 1 USING edits AND dist(b.seq, c.seq) <= 1 USING edits`,
				want, "nl", "index", "partition")
		})
	}
}

// TestJoinOracleVec covers the vector-metric join strategies: l2
// (triangular — norm-banded partitions and VP-tree probes are legal)
// and cosine (not triangular — single partition, no index). Rows
// without a vector must never match.
func TestJoinOracleVec(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rows := joinOracleRows(rng, 100)
	cases := []struct {
		name   string
		radius float64
		algos  []string
	}{
		{"l2", 0.8, []string{"nl", "index", "partition"}},
		{"cosine", 0.25, []string{"nl", "partition"}},
	}
	for _, shards := range []int{1, 4} {
		p := newJoinOracle(shards, rows)
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, c := range cases {
				m, ok := metric.Lookup(c.name)
				if !ok {
					t.Fatalf("metric %q not registered", c.name)
				}
				var want []string
				for ai, a := range rows {
					if a.Vec == nil {
						continue
					}
					for bi, b := range rows {
						if ai == bi || b.Vec == nil {
							continue
						}
						if d, within := metric.Within(m, a.Vec, b.Vec, c.radius); within {
							want = append(want, fmt.Sprintf("%d\x1f%d\x1f%s", ai, bi, formatDist(d)))
						}
					}
				}
				stmt := fmt.Sprintf(
					`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.vec, b.vec) <= %g USING %s WHERE a.id != b.id`,
					c.radius, c.name)
				p.checkJoin(t, stmt, want, c.algos...)
			}
		})
	}
}

// TestJoinOracleInterleavedDML hammers join reads under every join
// algorithm on both layouts while a single writer per layout applies
// the same deterministic DML stream, then re-checks full join parity
// against the brute-force model over the converged table. Under -race
// this proves the inner-side snapshot capture (and index probing) is
// data-race free against live mutation.
func TestJoinOracleInterleavedDML(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	rows := joinOracleRows(rng, 60)
	p := newJoinOracle(4, rows)

	var stmts []string
	for i := 0; i < 80; i++ {
		if rng.Intn(3) == 0 {
			stmts = append(stmts, fmt.Sprintf(
				`DELETE FROM words WHERE seq SIMILAR TO %q WITHIN 1 USING edits`, randOracleSeq(rng)))
		} else {
			stmts = append(stmts, fmt.Sprintf(
				`INSERT INTO words (seq, tag) VALUES (%q, %q)`, randOracleSeq(rng), fmt.Sprint(i%3)))
		}
	}

	joins := []string{
		`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits`,
		`SELECT a.id, b.id FROM words a, words b ON dist(a.vec, b.vec) <= 0.8 USING l2 WHERE a.id != b.id`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, cat := range []*relation.Catalog{p.plain, p.sharded} {
		writer := joinEngine(t, cat, defaultBatchSize)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range stmts {
				if _, err := writer.Execute(s); err != nil {
					errs <- fmt.Errorf("%q: %w", s, err)
					return
				}
			}
		}()
		for r, algo := range []string{"nl", "index", "partition"} {
			r, algo, reader := r, algo, joinEngine(t, cat, defaultBatchSize)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 12; i++ {
					if _, err := runPinned(reader, joins[(r+i)%len(joins)], algo); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	// Converged: table contents must agree, and a final join must match
	// the brute force over the surviving rows.
	plainTab, _ := p.plain.Lookup("words")
	shardTab, _ := p.sharded.Lookup("words")
	dump := func(tab relation.Table) string {
		var b strings.Builder
		for _, tup := range tab.Tuples() {
			fmt.Fprintf(&b, "%d\x1f%s\n", tup.ID, tup.Seq)
		}
		return b.String()
	}
	if dump(plainTab) != dump(shardTab) {
		t.Fatalf("tables diverge after interleaved DML:\nunsharded:\n%s\nsharded:\n%s",
			dump(plainTab), dump(shardTab))
	}
	final := plainTab.Tuples()
	var want []string
	for _, a := range final {
		for _, b := range final {
			if d, ok := editdp.LevenshteinWithin(a.Seq, b.Seq, 1); ok {
				want = append(want, fmt.Sprintf("%d\x1f%d\x1f%s", a.ID, b.ID, formatDist(float64(d))))
			}
		}
	}
	p.checkJoin(t, joins[0], want, "nl", "index", "partition")
}
