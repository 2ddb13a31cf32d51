package query

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
)

// TestVectorizeDecisionInExplain pins the EXPLAIN surface of the
// pipeline: every plan carries the Vectorize pseudo-root with the leaf
// block size, unit-cost joins render the partition join and weighted
// joins the nested loop, each a native batch operator.
func TestVectorizeDecisionInExplain(t *testing.T) {
	e := bigEngine(t)
	res, err := e.Execute(`EXPLAIN SELECT * FROM dict LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Plan, "Vectorize(batch=3)") {
		t.Fatalf("vectorized plan lacks the Vectorize root (limit-capped):\n%s", res.Plan)
	}

	res, err = e.Execute(`EXPLAIN SELECT seq FROM dict WHERE seq SIMILAR TO "abcdef" WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	// The index-served range plan also surfaces the decided distance
	// kernel (bit-parallel Myers inside the BK-tree traversal).
	if !strings.HasPrefix(res.Plan, "Vectorize(batch=256, kernel=myers)") {
		t.Fatalf("vectorized plan lacks the default-size Vectorize root with the kernel:\n%s", res.Plan)
	}

	// A unit-cost join runs the length-partitioned join.
	res, err = e.Execute(`EXPLAIN SELECT a.seq FROM dna a, dna b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Vectorize(", "PartitionJoin(probe a.seq into b[length-banded]"} {
		if !strings.Contains(res.Plan, frag) {
			t.Fatalf("vectorized join plan lacks %q:\n%s", frag, res.Plan)
		}
	}

	// A weighted join has no length band: the nested loop.
	res, err = e.Execute(`EXPLAIN SELECT a.seq FROM dna a, dna b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING half`)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Vectorize(", "NestedLoopJoin(on "} {
		if !strings.Contains(res.Plan, frag) {
			t.Fatalf("weighted join plan lacks %q:\n%s", frag, res.Plan)
		}
	}

	small := NewEngine(e.Catalog(), WithBatchSize(0))
	res, err = small.Execute(`EXPLAIN SELECT * FROM dict`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Plan, "Vectorize(batch=1)") {
		t.Fatalf("WithBatchSize(0) did not clamp to one-row blocks:\n%s", res.Plan)
	}
}

// TestBatchLimitPushdownCandidates is the block-level LIMIT-pushdown
// regression test: the leaf block size is capped by a LIMIT without
// ORDER BY, so a LIMIT 1 plan must touch far fewer candidates than the
// full query — the scan and index analogue of
// TestLimitPushdownIndexCandidates.
func TestBatchLimitPushdownCandidates(t *testing.T) {
	e := bigEngine(t)
	full, err := e.Execute(`SELECT seq FROM dict`)
	if err != nil {
		t.Fatal(err)
	}
	one, err := e.Execute(`SELECT seq FROM dict LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if one.Stats.Candidates >= full.Stats.Candidates {
		t.Errorf("batch scan LIMIT 1 touched %d candidates, full scan %d", one.Stats.Candidates, full.Stats.Candidates)
	}
	idxOne, err := e.Execute(`SELECT seq FROM clust WHERE seq SIMILAR TO "abcdefgh" WITHIN 1 USING unit-edits LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	idxFull, err := e.Execute(`SELECT seq FROM clust WHERE seq SIMILAR TO "abcdefgh" WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	if idxOne.Stats.Candidates >= idxFull.Stats.Candidates {
		t.Errorf("batch index LIMIT 1 touched %d candidates, full range %d",
			idxOne.Stats.Candidates, idxFull.Stats.Candidates)
	}
}

// TestBatchSyncColsDivergedCapacities is the regression test for a
// pooled-batch crash: dist ([]float64) and has ([]bool) grow through
// independent appends and land in different allocator size classes, so
// a recycled batch can carry cap(has) < n <= cap(dist); syncCols must
// resize each column by its own capacity instead of assuming they
// moved in lockstep.
func TestBatchSyncColsDivergedCapacities(t *testing.T) {
	b := &Batch{}
	b.dist = make([]float64, 0, 64)
	b.has = make([]bool, 0, 8)
	for i := 0; i < 20; i++ {
		b.Block.Append(i, "s", nil, nil)
	}
	b.syncCols() // panicked before the fix: has[:20] with capacity 8
	if len(b.dist) != 20 || len(b.has) != 20 {
		t.Fatalf("syncCols lengths = %d/%d, want 20/20", len(b.dist), len(b.has))
	}
	for i := range b.has {
		if b.has[i] || b.dist[i] != 0 {
			t.Fatalf("syncCols left stale distance state at row %d", i)
		}
	}
}

// TestBatchDMLReadPlan pins that DELETE/UPDATE read phases (the id
// column feeds collectIDs) affect the same rows as the reference —
// covered broadly by the oracle, but this is the minimal deterministic
// repro.
func TestBatchDMLReadPlan(t *testing.T) {
	h := newRefHarness(t, 1, blockSizes(16)...)
	h.exec(t, `INSERT INTO words (seq, tag) VALUES ("abc", "1"), ("abd", "1"), ("hij", "2"), ("abe", "2")`)
	res := h.exec(t, `DELETE FROM words WHERE seq SIMILAR TO "abc" WITHIN 1 USING edits`)
	if res.Rows[0][0] != "3" {
		t.Fatalf("delete count = %s, want 3", res.Rows[0][0])
	}
	h.exec(t, `UPDATE words SET tag = "9" WHERE seq = "hij"`)
	h.checkDump(t)
}

// TestBatchFilterAllocsConstant pins the filter's per-row allocation
// profile: a Scan -> Filter pipeline over a compiled predicate must not
// allocate per row, so its allocations stay flat as the relation grows
// tenfold.
func TestBatchFilterAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		rel := relation.New("words")
		for i := 0; i < n; i++ {
			rel.Insert(fmt.Sprintf("w%d", i), map[string]string{"tag": fmt.Sprint(i % 7)})
		}
		cat := relation.NewCatalog()
		cat.Add(rel)
		e := NewEngine(cat)
		snap := rel.Snapshot()
		q, err := Parse(`SELECT id FROM words WHERE tag = "3"`)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &execCtx{eng: e}
		op := &batchFilterOp{ctx: ctx, child: newBatchScanOp(ctx, snap, "words", defaultBatchSize), pred: q.Where, alias: "words"}
		drain := func() {
			if err := op.OpenBatch(); err != nil {
				t.Fatal(err)
			}
			for {
				b, err := op.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
			}
			if err := op.CloseBatch(); err != nil {
				t.Fatal(err)
			}
		}
		drain() // warm the batch pool
		return testing.AllocsPerRun(20, drain)
	}
	small, large := allocs(1000), allocs(10000)
	if large > small+4 {
		t.Fatalf("Scan -> Filter allocations grow with the row count: %v at 1000 rows, %v at 10000", small, large)
	}
}
