package query

// Plan construction for unsharded single-relation queries, plus the
// pieces every build shares: the leaf block size, the decorator stack
// above the access path, the Parallel wrapper and the EXPLAIN root.
// Join chains build in join_batch.go, sharded scatter-gather plans in
// batch_shard.go.

import (
	"fmt"

	"repro/internal/relation"
)

// batchLeafSize resolves the block size for a plan's leaf operators:
// the engine's configured block size, capped by a LIMIT-without-ORDER
// so the pull-based limit pushdown keeps working at block granularity —
// a LIMIT 3 plan must not drag a 256-row block through the pipeline per
// pull. The cap bounds a plan's overshoot to at most one block beyond
// the rows the limit needs.
func (e *Engine) batchLeafSize(q *Query) int {
	size := e.batchSize
	if q.Limit > 0 && q.Order == OrderNone && q.Limit < size {
		size = q.Limit
	}
	return size
}

// buildSingle constructs the operator tree for a decided unsharded
// single-relation query over one snapshot. Range access re-extracts its
// conjunct deterministically, so the same conjunct the decision was made
// for is found again.
func (e *Engine) buildSingle(q *Query, d *planDecision, snap *relation.Snapshot, st relation.Stats, ctx *execCtx, cp *compiledPlan) (*compiledPlan, error) {
	alias := q.From[0].Alias
	size := cp.batchSize

	var access BatchOperator
	switch d.kind {
	case accessNearest:
		ne := q.Where.(NearestExpr)
		if isVecNearest(&ne) {
			access = trB(ctx, &batchVecNearestKOp{
				ctx: ctx, snap: snap, alias: alias,
				via: d.via, target: ne.Target.Vec, k: ne.K, metricName: ne.RuleSet, size: size,
			}, estNearestRows(st.VecCount, ne.K), d.kernel)
		} else {
			access = trB(ctx, &batchNearestKOp{
				ctx: ctx, snap: snap, alias: alias,
				via: d.via, target: ne.Target.Lit, k: ne.K, ruleSet: ne.RuleSet, size: size,
			}, estNearestRows(st.Count, ne.K), d.kernel)
		}
	case accessRange:
		if d.via == "vptree" {
			sim, residual := extractVecRangeSim(q.Where)
			if sim == nil {
				return nil, fmt.Errorf("query: stale plan: no vector range conjunct")
			}
			var op BatchOperator = trB(ctx, &batchVecRangeOp{
				ctx: ctx, snap: snap, alias: alias,
				target: sim.Target.Vec, radius: sim.Radius, metricName: sim.RuleSet, size: size,
			}, estVecRangeRows(st, sim.Radius), d.kernel)
			if res := simplifyExpr(residual); !isTrivial(res) {
				op = trB(ctx, &batchFilterOp{ctx: ctx, child: op, pred: res, alias: alias},
					estFilterRows(st, res, estOfBatch(op)), e.filterKernel(res))
			}
			access = op
			break
		}
		sim, residual := extractRangeSim(q.Where, e.rangeIndexable)
		if sim == nil {
			return nil, fmt.Errorf("query: stale plan: no indexable conjunct")
		}
		var op BatchOperator = trB(ctx, &batchIndexRangeOp{
			ctx: ctx, snap: snap, alias: alias, via: d.via,
			target: sim.Target.Lit, radius: int(sim.Radius), ruleSet: sim.RuleSet, size: size,
		}, estRangeRows(st, sim.Radius), d.kernel)
		if res := simplifyExpr(residual); !isTrivial(res) {
			op = trB(ctx, &batchFilterOp{ctx: ctx, child: op, pred: res, alias: alias},
				estFilterRows(st, res, estOfBatch(op)), e.filterKernel(res))
		}
		access = op
	case accessScan:
		pred := simplifyExpr(q.Where)
		build := func(shard, shards int) BatchOperator {
			sc := newBatchScanOp(ctx, snap, alias, size)
			sc.shard, sc.shards = shard, shards
			var op BatchOperator = trB(ctx, sc, float64(st.Count)/float64(shards), "")
			if !isTrivial(pred) {
				op = trB(ctx, &batchFilterOp{ctx: ctx, child: op, pred: pred, alias: alias},
					estFilterRows(st, pred, estOfBatch(op)), e.filterKernel(pred))
			}
			return op
		}
		access = wrapBatchParallel(ctx, d, build)
	default:
		return nil, fmt.Errorf("query: unknown access kind %d", d.kind)
	}

	cp.broot = e.wrapBatchTop(q, access, alias, size, ctx)
	return cp, nil
}

// wrapBatchTop applies the shared decorator stack — OrderByDist,
// Project, Limit — above an access path.
func (e *Engine) wrapBatchTop(q *Query, access BatchOperator, alias string, size int, ctx *execCtx) BatchOperator {
	top := access
	if q.Order == OrderDesc {
		top = trB(ctx, &batchOrderByDistOp{child: top, desc: true, size: size}, estOfBatch(top), "")
	} else if q.Order == OrderAsc {
		top = trB(ctx, &batchOrderByDistOp{child: top, size: size}, estOfBatch(top), "")
	}
	top = trB(ctx, &batchProjectOp{ctx: ctx, q: q, child: top, alias: alias}, estOfBatch(top), "")
	if q.Limit > 0 {
		top = trB(ctx, &batchLimitOp{child: top, n: q.Limit}, estLimitRows(q.Limit, estOfBatch(top)), "")
	}
	return top
}

// wrapBatchParallel applies the decision's parallelism choice to a
// batch pipeline factory.
func wrapBatchParallel(ctx *execCtx, d *planDecision, build func(shard, shards int) BatchOperator) BatchOperator {
	if d.parallel && d.workers > 1 {
		p := &batchParallelOp{ctx: ctx, workers: d.workers, build: build}
		if ctx.traced {
			// Prebuild every shard pipeline so each carries its own span
			// wrappers; OpenBatch runs the prebuilt instances and ANALYZE
			// merges their counters (untraced plans keep lazy per-Open
			// builds and pay nothing).
			p.prebuilt = make([]BatchOperator, d.workers)
			for i := range p.prebuilt {
				p.prebuilt[i] = build(i, d.workers)
			}
			p.template = p.prebuilt[0]
		} else {
			p.template = build(0, d.workers)
		}
		return trB(ctx, p, -1, "")
	}
	return build(0, 1)
}

// vectorizeNode is the EXPLAIN pseudo-root of every plan: it surfaces
// the leaf block size and — when the plan has a distance conjunct —
// which distance kernel serves it (bit-parallel Myers vs the weighted
// TargetDP, or a vector metric's block kernel).
type vectorizeNode struct {
	child  any
	size   int
	kernel string
}

func (v *vectorizeNode) Describe() string {
	if v.kernel != "" {
		return fmt.Sprintf("Vectorize(batch=%d, kernel=%s)", v.size, v.kernel)
	}
	return fmt.Sprintf("Vectorize(batch=%d)", v.size)
}
func (v *vectorizeNode) childNodes() []any { return []any{v.child} }
