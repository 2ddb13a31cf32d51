package query

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/index"
)

// ExecStats counts the work one query execution performed; exposed on
// Result so callers (and the LIMIT-pushdown regression tests) can see
// how many candidates an access path actually touched.
type ExecStats struct {
	Candidates    int  // tuples and index nodes examined by access paths
	Verifications int  // distance computations and predicate evaluations
	Nodes         int  // tree-index nodes visited during index traversals
	Pruned        int  // index subtrees skipped by a pruning bound
	Abandoned     int  // verifications cut short by the early-abandon bound
	PlanCacheHit  bool // this execution reused a cached plan (skipped parse+plan)
}

// add folds another operator's counters into s (PlanCacheHit is a
// per-execution flag, not a counter, and is left alone).
func (s *ExecStats) add(o ExecStats) {
	s.Candidates += o.Candidates
	s.Verifications += o.Verifications
	s.Nodes += o.Nodes
	s.Pruned += o.Pruned
	s.Abandoned += o.Abandoned
}

// fromIndexStats lifts an index iterator's work counters into the
// executor's schema.
func fromIndexStats(st index.Stats) ExecStats {
	return ExecStats{
		Candidates:    st.Candidates,
		Verifications: st.Verifications,
		Nodes:         st.Nodes,
		Pruned:        st.Pruned,
		Abandoned:     st.Abandoned,
	}
}

// execCtx is shared by every operator of one executing query.
type execCtx struct {
	eng    *Engine
	traced bool // collect per-operator spans (EXPLAIN ANALYZE / engine tracing)

	mu    sync.Mutex
	stats ExecStats
}

// addStats merges an operator's local counters; safe for concurrent use
// by parallel shard workers.
func (c *execCtx) addStats(s ExecStats) {
	if s.Nodes > 0 {
		mIndexVisited.Add(int64(s.Nodes))
	}
	if s.Pruned > 0 {
		mIndexPruned.Add(int64(s.Pruned))
	}
	c.mu.Lock()
	c.stats.add(s)
	c.mu.Unlock()
}

func (c *execCtx) snapshot() ExecStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// compiledPlan is the planner's output: a batch operator tree plus the
// result header it produces.
type compiledPlan struct {
	broot     BatchOperator
	batchSize int    // leaf block size (EXPLAIN)
	kernel    string // decided distance kernel (EXPLAIN label, dispatch metric)
	ctx       *execCtx
	columns   []string
}

// describe renders the operator tree for EXPLAIN and Result.Plan under
// the Vectorize pseudo-root, which surfaces the leaf block size and the
// decided distance kernel at the top of the tree.
func (p *compiledPlan) describe() string {
	return renderTree(&vectorizeNode{child: p.broot, size: p.batchSize, kernel: p.kernel})
}

// run drives the operator tree to completion, appending each block's
// projected rows to the result.
func (p *compiledPlan) run() (*Result, error) {
	res := &Result{Columns: p.columns, Plan: p.describe()}
	if err := p.broot.OpenBatch(); err != nil {
		p.broot.CloseBatch()
		return nil, err
	}
	for {
		b, err := p.broot.NextBatch()
		if err != nil {
			p.broot.CloseBatch()
			return nil, err
		}
		if b == nil {
			break
		}
		res.Rows = append(res.Rows, b.rows...)
	}
	if err := p.broot.CloseBatch(); err != nil {
		return nil, err
	}
	res.Stats = p.ctx.snapshot()
	return res, nil
}

// renderTree renders an operator tree with box-drawing indentation:
//
//	Limit(3)
//	└─ Project(seq, dist)
//	   └─ Filter(lang = "en")
//	      └─ IndexRange(words via bktree, target=color, radius=1, ruleset=edits)
//
// Nodes are batch operators or pseudo-nodes (the Vectorize root).
func renderTree(node any) string {
	var b strings.Builder
	var walk func(node any, prefix string, last bool, root bool)
	walk = func(node any, prefix string, last, root bool) {
		if root {
			b.WriteString(describeNode(node))
		} else {
			b.WriteString("\n")
			b.WriteString(prefix)
			if last {
				b.WriteString("└─ ")
				prefix += "   "
			} else {
				b.WriteString("├─ ")
				prefix += "│  "
			}
			b.WriteString(describeNode(node))
		}
		kids := childNodesOf(node)
		for i, k := range kids {
			walk(k, prefix, i == len(kids)-1, false)
		}
	}
	walk(node, "", true, true)
	return b.String()
}

// describeNode returns a node's EXPLAIN label.
func describeNode(n any) string {
	if d, ok := n.(interface{ Describe() string }); ok {
		return d.Describe()
	}
	return fmt.Sprintf("%T", n)
}

// childNodesOf returns a node's inputs for the tree walk.
func childNodesOf(n any) []any {
	if cn, ok := n.(interface{ childNodes() []any }); ok {
		return cn.childNodes()
	}
	return nil
}

// projectColumns computes the result header for a query's projection.
func projectColumns(q *Query) []string {
	var cols []string
	if len(q.Select) > 0 {
		for _, c := range q.Select {
			cols = append(cols, c.String())
		}
		return cols
	}
	// '*': id and seq per alias, then dist. Aliases are prefixed as soon
	// as more than one relation is in scope.
	for _, ref := range q.From {
		prefix := ""
		if len(q.From) > 1 {
			prefix = ref.Alias + "."
		}
		cols = append(cols, prefix+"id", prefix+"seq")
	}
	return append(cols, "dist")
}

// projectRow materialises one output row from a binding.
func projectRow(eng *Engine, q *Query, b *binding) ([]string, error) {
	var row []string
	if len(q.Select) > 0 {
		row = make([]string, 0, len(q.Select))
		for _, c := range q.Select {
			v, err := fieldValue(FieldRef{Table: c.Table, Name: c.Name}, b)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		return row, nil
	}
	row = make([]string, 0, 2*len(q.From)+1)
	for _, ref := range q.From {
		t, _ := b.tupleFor(ref.Alias)
		row = append(row, fmt.Sprintf("%d", t.ID), t.Seq)
	}
	if b.hasDist {
		row = append(row, formatDist(b.dist))
	} else {
		row = append(row, "")
	}
	return row, nil
}
