package query

// GatherMerge determinism: equal-distance rows must order by row key
// (tuple id) no matter which shard finishes first. The stub children
// block in OpenBatch until released, so each table case is executed
// under every permutation of shard completion order and must produce
// the same bytes.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/relation"
)

// stubRow is one row a stub shard emits.
type stubRow struct {
	id   int
	dist float64
}

// stubShardOp emits a fixed row list, one row per block, after its
// gate releases and signals done on CloseBatch, letting the test
// serialize shard completion into an exact order.
type stubShardOp struct {
	rows []stubRow
	gate chan struct{}
	done chan struct{}
	pos  int
	buf  Batch
}

func (o *stubShardOp) OpenBatch() error {
	if o.gate != nil {
		<-o.gate
	}
	o.pos = 0
	return nil
}

func (o *stubShardOp) NextBatch() (*Batch, error) {
	if o.pos >= len(o.rows) {
		return nil, nil
	}
	r := o.rows[o.pos]
	o.pos++
	o.buf.reset()
	o.buf.alias = "t"
	o.buf.appendMatch(relation.Tuple{ID: r.id, Seq: fmt.Sprintf("s%d", r.id)}, r.dist, true)
	return &o.buf, nil
}

func (o *stubShardOp) CloseBatch() error {
	select {
	case <-o.done:
	default:
		close(o.done)
	}
	return nil
}

func (o *stubShardOp) Describe() string  { return "StubShard" }
func (o *stubShardOp) childNodes() []any { return nil }

func stubRowOf(id int, dist float64) stubRow { return stubRow{id: id, dist: dist} }

func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for i := 0; i <= len(sub); i++ {
			p := make([]int, 0, n)
			p = append(p, sub[:i]...)
			p = append(p, n-1)
			p = append(p, sub[i:]...)
			out = append(out, p)
		}
	}
	return out
}

// drainGather runs a batchGatherMergeOp whose children complete in the
// given order and returns the merged (id, dist) pairs.
func drainGather(t *testing.T, shardRows [][]stubRow, mode gatherMode, k int, completion []int) [][2]float64 {
	t.Helper()
	children := make([]BatchOperator, len(shardRows))
	stubs := make([]*stubShardOp, len(shardRows))
	for i, rows := range shardRows {
		stubs[i] = &stubShardOp{rows: rows, gate: make(chan struct{}), done: make(chan struct{})}
		children[i] = stubs[i]
	}
	op := &batchGatherMergeOp{
		ctx: &execCtx{}, children: children, workers: len(children),
		alias: "t", mode: mode, k: k, size: 2,
	}
	done := make(chan error, 1)
	var got [][2]float64
	go func() {
		if err := op.OpenBatch(); err != nil {
			done <- err
			return
		}
		for {
			b, err := op.NextBatch()
			if err != nil {
				done <- err
				return
			}
			if b == nil {
				break
			}
			for i := 0; i < b.Len(); i++ {
				got = append(got, [2]float64{float64(b.IDs[i]), b.dist[i]})
			}
		}
		done <- op.CloseBatch()
	}()
	// Release the shards strictly in the permuted completion order:
	// shard i+1 may not even start until shard i has fully finished.
	for _, i := range completion {
		close(stubs[i].gate)
		<-stubs[i].done
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return got
}

// TestGatherMergeTieBreaking: table-driven over merge modes and tie
// layouts; every completion-order permutation must yield the identical
// output.
func TestGatherMergeTieBreaking(t *testing.T) {
	cases := []struct {
		name   string
		shards [][]stubRow // per shard, in the shard's own emit order
		mode   gatherMode
		k      int
		want   [][2]float64
	}{
		{
			name: "bestk equal distances across shards",
			shards: [][]stubRow{
				{stubRowOf(3, 1), stubRowOf(7, 1)},
				{stubRowOf(1, 1), stubRowOf(9, 1)},
				{stubRowOf(5, 1), stubRowOf(6, 1)},
			},
			mode: gatherBestK, k: 4,
			// All dist 1: ids ascending, truncated to k.
			want: [][2]float64{{1, 1}, {3, 1}, {5, 1}, {6, 1}},
		},
		{
			name: "bestk mixed distances with boundary tie",
			shards: [][]stubRow{
				{stubRowOf(10, 0), stubRowOf(11, 2)},
				{stubRowOf(2, 2), stubRowOf(4, 3)},
				{stubRowOf(8, 1)},
			},
			mode: gatherBestK, k: 3,
			// The k-th slot is contested by dist-2 rows 2 and 11: lower id
			// wins regardless of which shard delivered first.
			want: [][2]float64{{10, 0}, {8, 1}, {2, 2}},
		},
		{
			name: "bestk k larger than matches",
			shards: [][]stubRow{
				{stubRowOf(2, 2)},
				{},
				{stubRowOf(1, 2)},
			},
			mode: gatherBestK, k: 10,
			want: [][2]float64{{1, 2}, {2, 2}},
		},
		{
			name: "id merge restores global scan order",
			shards: [][]stubRow{
				{stubRowOf(0, 1), stubRowOf(5, 1)},
				{stubRowOf(2, 1)},
				{stubRowOf(1, 1), stubRowOf(3, 1), stubRowOf(4, 1)},
			},
			mode: gatherByID,
			want: [][2]float64{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}},
		},
		{
			name: "id merge sorts unsorted index-traversal buffers",
			shards: [][]stubRow{
				{stubRowOf(6, 1), stubRowOf(0, 2)}, // traversal order, not id order
				{stubRowOf(3, 1), stubRowOf(1, 3)},
			},
			mode: gatherByID,
			want: [][2]float64{{0, 2}, {1, 3}, {3, 1}, {6, 1}},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, perm := range permutations(len(c.shards)) {
				got := drainGather(t, c.shards, c.mode, c.k, perm)
				if !reflect.DeepEqual(got, c.want) {
					t.Fatalf("completion order %v: merged %v, want %v", perm, got, c.want)
				}
			}
		})
	}
}
