package query

// Distance joins. One BatchOperator, batchJoinOp, executes every
// decided join step: it blocks the OUTER side through the batch
// pipeline and, per outer row, collects the verified inner matches
// before emitting merged bindings. The three physical algorithms differ
// only in how a probe finds its matches:
//
//   - "partition": the inner side is partitioned once at open.
//     Edit-distance edges bucket inner rows by sequence length: under a
//     unit-cost rule set every edit costs at least 1, so
//     d(x, y) >= | |x| - |y| | and a probe of length L only needs the
//     buckets [L-floor(k), L+floor(k)] — the classic length-filter
//     band. Vector edges under a triangular metric bucket by distance
//     to a fixed vantage (the zero vector): |d(q,0) - d(c,0)| <= d(q,c),
//     so a probe with norm n only needs buckets covering [n-r, n+r].
//     Non-triangular metrics (cosine) degrade to a single partition —
//     the blocked kernels still apply, the pruning does not. Inside a
//     band the probe runs the scan+filter kernels (bit-parallel Myers or
//     the dense TargetDP for strings, the metric's DistBatch for
//     vectors) with evalSim's operand order preserved on every
//     fallback.
//   - "nl": the unbanded case of the partition join — one bucket
//     holding every inner row, each pair checked through evalSim's
//     operand order (Engine.within for rule sets, metric.Within for
//     vectors). It works for any rule set or metric.
//   - "index": each probe queries the inner relation's metric index —
//     the BK-tree for unit-cost edit edges at an integral radius over
//     seq, the VP-tree for vector edges under a triangular metric.
//
// The inner side is a list of snapshots: one for a plain relation, one
// per shard when a sharded inner is broadcast. Per-probe matches sort
// by global tuple id before emission, so every algorithm emits in the
// same order (outer order, inner ascending) and the three are
// byte-identical — the join oracle pins that against a reference
// evaluator.
//
// Sharded joins run one chain per OUTER shard under an id-ordered
// GatherMerge, each chain joining its outer shard against the FULL
// inner side ("broadcast": every chain sees every inner shard's
// snapshot). Ids are global and each chain's output is ascending in
// outer id with inner matches ascending in global inner id, so the
// gather reproduces exactly the unsharded plan's emission order.
// Broadcast is the right strategy because the hash partitioner
// (relation.RouteOf) is not distance-preserving: rows within edit
// distance k of each other land on unrelated shards, so a
// co-partitioned join does not exist without a band-aware
// partitioning scheme. The partition join recovers that banding per
// chain, over the broadcast inner, without moving rows.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/relation"
)

// partInnerRow is one partitioned inner tuple; val holds the join
// attribute, resolved once at partition time.
type partInnerRow struct {
	t   relation.Tuple
	val string
}

// partVecRow is the vector analogue; the vector lives in the tuple.
type partVecRow struct {
	t relation.Tuple
}

// partMatch is one verified join match of the current probe.
type partMatch struct {
	t relation.Tuple
	d float64
}

// batchJoinOp is the BatchOperator that executes one decided join step
// ("nl", "index" or "partition").
type batchJoinOp struct {
	ctx           *execCtx
	child         BatchOperator // outer side, batched
	algo          string
	snaps         []*relation.Snapshot
	alias         string   // inner alias
	probeField    FieldRef // outer-side join field
	innerField    string   // inner-side join attribute
	outerIsTarget bool     // probe value is the predicate's target operand
	sim           *SimExpr
	size          int
	vec           bool
	m             metric.Distance // vec edges: the resolved metric

	// Partition state, built at OpenBatch ("nl" keeps one bucket).
	strBuckets map[int][]partInnerRow // key: len(val)
	vecBuckets map[int][]partVecRow   // key: floor(norm/w)
	vecCols    map[int][]metric.Vector
	bandW      float64 // vec bucket width (radius, min 1)
	banded     bool    // vec: triangular metric => norm pruning applies
	calc       *editdp.Calculator

	// Iteration state.
	cur     *Batch // current outer batch (owned by child)
	pos     int    // next outer row to probe
	curBind *binding
	scratch binding
	matches []partMatch
	mpos    int
	dists   []float64 // DistBatch scratch

	out   *Batch
	binds []*binding
	local ExecStats
	last  ExecStats // retained across Close for span attribution
}

func (o *batchJoinOp) OpenBatch() error {
	if o.algo != "index" {
		if err := o.buildPartitions(); err != nil {
			return err
		}
	}
	o.out = getBatch()
	o.cur, o.pos, o.curBind = nil, 0, nil
	o.matches, o.mpos = o.matches[:0], 0
	return o.child.OpenBatch()
}

// buildPartitions reads every inner snapshot once and buckets the rows
// (one bucket for the nested loop). Reading the inner side counts as
// candidate work, like a scan's.
func (o *batchJoinOp) buildPartitions() error {
	nested := o.algo == "nl"
	if o.vec {
		if o.m == nil {
			return fmt.Errorf("query: stale plan: join lost its metric")
		}
		o.banded = !nested && metric.IsTriangular(o.m)
		o.bandW = o.sim.Radius
		if o.bandW <= 0 {
			o.bandW = 1
		}
		o.vecBuckets = make(map[int][]partVecRow)
		o.vecCols = make(map[int][]metric.Vector)
		for _, snap := range o.snaps {
			for _, t := range snap.Tuples() {
				if t.Vec == nil {
					continue // rows without a vector never match
				}
				key := 0
				if o.banded {
					key = int(math.Floor(o.m.Dist(t.Vec, metric.Vector{}) / o.bandW))
				}
				o.vecBuckets[key] = append(o.vecBuckets[key], partVecRow{t: t})
				o.vecCols[key] = append(o.vecCols[key], t.Vec)
				o.local.Candidates++
			}
		}
		return nil
	}
	if !nested {
		o.calc = o.ctx.eng.calc(o.sim.RuleSet)
		if o.calc == nil {
			// Partition is only decided for rule sets with a DP calculator;
			// the rule set changed under the plan — Execute re-plans on this.
			return fmt.Errorf("query: stale plan: rule set %q has no calculator", o.sim.RuleSet)
		}
	}
	o.strBuckets = make(map[int][]partInnerRow)
	for _, snap := range o.snaps {
		for _, t := range snap.Tuples() {
			val := t.Attr(o.innerField)
			key := len(val)
			if nested {
				key = 0
			}
			o.strBuckets[key] = append(o.strBuckets[key], partInnerRow{t: t, val: val})
			o.local.Candidates++
		}
	}
	return nil
}

// probe verifies the inner candidates against one outer row and leaves
// the id-sorted matches in o.matches.
func (o *batchJoinOp) probe(b *binding) error {
	o.matches, o.mpos = o.matches[:0], 0
	var err error
	switch {
	case o.algo == "index":
		err = o.probeIndex(b)
	case o.algo == "nl":
		err = o.probeNested(b)
	case o.vec:
		err = o.probeVec(b)
	default:
		err = o.probeStr(b)
	}
	if err != nil {
		return err
	}
	sort.Slice(o.matches, func(i, j int) bool { return o.matches[i].t.ID < o.matches[j].t.ID })
	return nil
}

func (o *batchJoinOp) probeStr(b *binding) error {
	pv, err := fieldValue(o.probeField, b)
	if err != nil {
		return err
	}
	radius := o.sim.Radius
	k := int(radius) // exact for integer distances: d <= radius iff d <= floor(radius)
	if radius >= math.MaxInt32 {
		k = math.MaxInt32 // clamp: degrades to the walk-all-buckets path below
	}
	// Fallback kernel preserving evalSim's operand order, built lazily —
	// most probes under a unit-cost rule set never need it.
	var fall *editdp.TargetDP
	fallback := func(x string) (float64, bool) {
		if o.outerIsTarget {
			if fall == nil {
				fall = o.calc.NewTargetDP(pv)
			}
			return fall.Within(x, radius)
		}
		return o.calc.Within(pv, x, radius)
	}
	// The unit distance is symmetric, so the Myers kernel can anchor on
	// the probe regardless of which operand it is: integer distances are
	// equal in both directions and bit-identical either way.
	var qdp *editdp.QueryDP
	if myersEligible(o.calc, pv, radius) {
		qdp = editdp.NewQueryDP(pv)
	}
	verify := func(rows []partInnerRow) {
		for _, row := range rows {
			o.local.Candidates++
			o.local.Verifications++
			var d float64
			var ok bool
			if qdp != nil && o.calc.Covers(row.val) {
				di, okd := qdp.Within(row.val, k)
				d, ok = float64(di), okd
			} else {
				d, ok = fallback(row.val)
			}
			if ok {
				o.matches = append(o.matches, partMatch{t: row.t, d: d})
			}
		}
	}
	if 2*k+1 <= len(o.strBuckets) {
		for key := len(pv) - k; key <= len(pv)+k; key++ {
			verify(o.strBuckets[key])
		}
	} else {
		// The band covers more keys than buckets exist (a huge radius):
		// walk the map instead of the key range. Matches are id-sorted
		// afterwards either way, so bucket visit order is irrelevant.
		for key, rows := range o.strBuckets {
			if math.Abs(float64(key-len(pv))) <= float64(k) {
				verify(rows)
			}
		}
	}
	return nil
}

func (o *batchJoinOp) probeVec(b *binding) error {
	t, err := vecTupleFor(o.probeField, b)
	if err != nil {
		return err
	}
	pv := t.Vec
	if pv == nil {
		return nil // rows without a vector never match
	}
	r := o.sim.Radius
	lo, hi := 0, 0
	if o.banded {
		nq := o.m.Dist(pv, metric.Vector{})
		lo = int(math.Floor((nq - r) / o.bandW))
		hi = int(math.Floor((nq + r) / o.bandW))
		if lo < 0 {
			lo = 0
		}
	}
	for key := lo; key <= hi; key++ {
		rows := o.vecBuckets[key]
		if len(rows) == 0 {
			continue
		}
		if o.outerIsTarget {
			// evalSim computes Dist(target, field); the blocked kernel
			// with the probe as query matches that order exactly.
			if cap(o.dists) < len(rows) {
				o.dists = make([]float64, len(rows))
			}
			out := o.dists[:len(rows)]
			metric.DistBatch(o.m, pv, o.vecCols[key], out)
			for i, row := range rows {
				o.local.Candidates++
				o.local.Verifications++
				if d := out[i]; d <= r {
					o.matches = append(o.matches, partMatch{t: row.t, d: d})
				}
			}
		} else {
			// Probe is the field operand: keep the candidate (target)
			// first, the order evalSim verifies with.
			for _, row := range rows {
				o.local.Candidates++
				o.local.Verifications++
				if d, ok := metric.Within(o.m, row.t.Vec, pv, r); ok {
					o.matches = append(o.matches, partMatch{t: row.t, d: d})
				}
			}
		}
	}
	return nil
}

// probeNested checks every inner row against the probe with evalSim's
// operand order: the predicate's field operand first for rule sets,
// the target vector first for metrics.
func (o *batchJoinOp) probeNested(b *binding) error {
	if o.vec {
		t, err := vecTupleFor(o.probeField, b)
		if err != nil {
			return err
		}
		if t.Vec == nil {
			return nil // rows without a vector never match
		}
		for _, row := range o.vecBuckets[0] {
			o.local.Candidates++
			o.local.Verifications++
			target, field := row.t.Vec, t.Vec
			if o.outerIsTarget {
				target, field = t.Vec, row.t.Vec
			}
			if d, ok := metric.Within(o.m, target, field, o.sim.Radius); ok {
				o.matches = append(o.matches, partMatch{t: row.t, d: d})
			}
		}
		return nil
	}
	pv, err := fieldValue(o.probeField, b)
	if err != nil {
		return err
	}
	for _, row := range o.strBuckets[0] {
		o.local.Candidates++
		o.local.Verifications++
		field, target := pv, row.val
		if o.outerIsTarget {
			field, target = row.val, pv
		}
		d, ok, err := o.ctx.eng.within(field, target, o.sim.RuleSet, o.sim.Radius)
		if err != nil {
			return err
		}
		if ok {
			o.matches = append(o.matches, partMatch{t: row.t, d: d})
		}
	}
	return nil
}

// probeIndex runs the probe through every inner snapshot's index. The
// online-maintained index is a superset of the snapshot, so each match
// passes the snapshot's visibility filter.
func (o *batchJoinOp) probeIndex(b *binding) error {
	if o.vec {
		t, err := vecTupleFor(o.probeField, b)
		if err != nil {
			return err
		}
		if t.Vec == nil {
			return nil // rows without a vector never match
		}
		for _, snap := range o.snaps {
			ms, st := snap.VPTree(o.m).RangeStats(t.Vec, o.sim.Radius)
			o.local.add(fromIndexStats(st))
			for _, m := range ms {
				if it, ok := snap.Tuple(m.ID); ok {
					o.matches = append(o.matches, partMatch{t: it, d: m.Dist})
				}
			}
		}
		return nil
	}
	pv, err := fieldValue(o.probeField, b)
	if err != nil {
		return err
	}
	for _, snap := range o.snaps {
		ms, st := snap.BKTree().RangeStats(pv, int(o.sim.Radius))
		o.local.add(fromIndexStats(st))
		for _, m := range ms {
			if it, ok := snap.Tuple(m.ID); ok {
				o.matches = append(o.matches, partMatch{t: it, d: m.Dist})
			}
		}
	}
	return nil
}

func (o *batchJoinOp) NextBatch() (*Batch, error) {
	b := o.out
	b.reset()
	binds := o.binds[:0]
	for len(binds) < o.size {
		if o.mpos < len(o.matches) {
			m := o.matches[o.mpos]
			o.mpos++
			nb := mergeBindings(o.curBind, newBinding(o.alias, m.t))
			if !nb.hasDist {
				nb.dist, nb.hasDist = m.d, true
			}
			binds = append(binds, nb)
			continue
		}
		if o.cur != nil && o.pos < o.cur.Len() {
			if o.cur.binds != nil {
				o.curBind = o.cur.binds[o.pos]
			} else {
				// Safe to reuse the scratch view: mergeBindings copies the
				// tuple into the emitted binding before the next probe.
				o.cur.scratch(o.pos, o.cur.alias, &o.scratch)
				o.curBind = &o.scratch
			}
			o.pos++
			if err := o.probe(o.curBind); err != nil {
				return nil, err
			}
			continue
		}
		nb, err := o.child.NextBatch()
		if err != nil {
			return nil, err
		}
		if nb == nil {
			break
		}
		o.cur, o.pos = nb, 0
	}
	o.binds = binds
	if len(binds) == 0 {
		return nil, nil
	}
	b.binds = binds
	return b, nil
}

func (o *batchJoinOp) CloseBatch() error {
	o.last.add(o.local)
	o.ctx.addStats(o.local)
	o.local = ExecStats{}
	o.strBuckets, o.vecBuckets, o.vecCols = nil, nil, nil
	o.cur, o.curBind = nil, nil
	putBatch(o.out)
	o.out = nil
	return o.child.CloseBatch()
}

func (o *batchJoinOp) opStats() ExecStats { return o.last }

func (o *batchJoinOp) Describe() string {
	fanout := ""
	if len(o.snaps) > 1 {
		fanout = fmt.Sprintf(" x%d shards", len(o.snaps))
	}
	switch o.algo {
	case "nl":
		if fanout != "" {
			return fmt.Sprintf("NestedLoopJoin(on %s, inner%s)", o.sim, fanout)
		}
		return fmt.Sprintf("NestedLoopJoin(on %s)", o.sim)
	case "index":
		idx := "bktree"
		if o.vec {
			idx = "vptree"
		}
		return fmt.Sprintf("IndexJoin(probe %s into %s(%s)%s, on %s)", o.probeField, idx, o.alias, fanout, o.sim)
	}
	band := "length-banded"
	if o.vec {
		band = "norm-banded"
		if !metric.IsTriangular(o.m) {
			band = "single partition"
		}
	}
	return fmt.Sprintf("PartitionJoin(probe %s into %s[%s]%s, on %s)", o.probeField, o.alias, band, fanout, o.sim)
}

func (o *batchJoinOp) childNodes() []any { return []any{o.child} }

// mergeBindings combines the alias maps of two bindings; the left
// binding's distance (if any) wins, preserving first-predicate-sets-
// dist semantics across join chains.
func mergeBindings(l, r *binding) *binding {
	aliases := make(map[string]relation.Tuple, 4)
	put := func(src *binding) {
		if src.aliases == nil {
			aliases[src.alias] = src.tuple
			return
		}
		for a, t := range src.aliases {
			aliases[a] = t
		}
	}
	put(l)
	put(r)
	b := &binding{aliases: aliases, dist: l.dist, hasDist: l.hasDist}
	if !b.hasDist && r.hasDist {
		b.dist, b.hasDist = r.dist, true
	}
	return b
}

// buildJoin reconstructs a decided join chain, unsharded or broadcast-
// sharded. Edges are recovered by position from extractJoinSims'
// deterministic output; edges not used by any step (cycles) become
// residual predicates — they must still hold on each output binding.
func (e *Engine) buildJoin(ctx *execCtx, q *Query, d *planDecision, tabs []relation.Table, size int) (BatchOperator, error) {
	relOf := map[string]relation.Table{}
	for i, ref := range q.From {
		relOf[ref.Alias] = tabs[i]
		if _, ok := tabs[i].(*relation.ShardedRelation); ok && !d.shardJoin {
			// The table was re-registered with a sharded layout after this
			// decision was made; Execute re-plans on this error.
			return nil, fmt.Errorf("query: stale plan: relation %q is now sharded", ref.Name)
		}
	}
	edges, residual := extractJoinSims(q.Where, relOf)
	used := make([]bool, len(edges))
	for _, step := range d.steps {
		if step.edge < 0 || step.edge >= len(edges) {
			return nil, fmt.Errorf("query: stale plan: join edge %d out of range", step.edge)
		}
		used[step.edge] = true
	}
	for i, edge := range edges {
		if !used[i] {
			residual = AndExpr{L: residual, R: *edge}
		}
	}
	pred := simplifyExpr(residual)
	steps := d.steps

	// Resolve metrics and ensure shared index structures BEFORE any view
	// or snapshot capture: the captured snapshots must carry the
	// online-maintained indexes instead of building private ones.
	stepMetrics := make([]metric.Distance, len(steps))
	for i, step := range steps {
		if step.vec {
			m, ok := metric.Lookup(edges[step.edge].RuleSet)
			if !ok {
				return nil, fmt.Errorf("query: unknown metric %q", edges[step.edge].RuleSet)
			}
			stepMetrics[i] = m
		}
		if step.algo != "index" {
			continue
		}
		switch t := relOf[step.alias].(type) {
		case *relation.ShardedRelation:
			if step.vec {
				t.EnsureVPTrees(stepMetrics[i])
			} else {
				t.EnsureBKTrees()
			}
		case *relation.Relation:
			if step.vec {
				t.VPTree(stepMetrics[i])
			} else {
				t.BKTree()
			}
		}
	}

	// One snapshot list per table IDENTITY: a self-join must read the
	// same consistent cut on both sides, and a sharded table's view is
	// captured exactly once.
	snapCache := map[relation.Table][]*relation.Snapshot{}
	snapsOf := func(tab relation.Table) ([]*relation.Snapshot, error) {
		if s, ok := snapCache[tab]; ok {
			return s, nil
		}
		var snaps []*relation.Snapshot
		switch t := tab.(type) {
		case *relation.ShardedRelation:
			view := t.View()
			snaps = make([]*relation.Snapshot, view.NumShards())
			for i := range snaps {
				snaps[i] = view.Snap(i)
			}
		case *relation.Relation:
			snaps = []*relation.Snapshot{t.Snapshot()}
		default:
			return nil, fmt.Errorf("query: relation %q has an unknown layout", tab.Name())
		}
		snapCache[tab] = snaps
		return snaps, nil
	}
	startSnaps, err := snapsOf(relOf[d.start])
	if err != nil {
		return nil, err
	}
	if d.shardJoin && len(startSnaps) != d.shards {
		// The start relation was re-registered with a different layout;
		// Execute re-plans on this error.
		return nil, fmt.Errorf("query: stale plan: relation %q has %d shards, plan wants %d",
			relOf[d.start].Name(), len(startSnaps), d.shards)
	}
	startStats := relOf[d.start].Stats()
	stepSnaps := make([][]*relation.Snapshot, len(steps))
	stepStats := make([]relation.Stats, len(steps))
	for i, step := range steps {
		if stepSnaps[i], err = snapsOf(relOf[step.alias]); err != nil {
			return nil, err
		}
		stepStats[i] = relOf[step.alias].Stats()
	}

	// chain builds the join pipeline over one outer snapshot, restricted
	// to scan shard (shard, shards) of it; estimates follow the decided
	// join order with the joinOutRowsFor formula decideJoin costed with,
	// scaled to the chain's share of the outer rows.
	chain := func(snap *relation.Snapshot, share, shard, shards int) BatchOperator {
		bs := newBatchScanOp(ctx, snap, d.start, size)
		bs.shard, bs.shards = shard, shards
		cur := float64(startStats.Count) / float64(share)
		var op BatchOperator = trB(ctx, bs, cur, "")
		for i, step := range steps {
			edge := edges[step.edge]
			cur = joinOutRowsFor(edge, cur, stepStats[i])
			outerIsTarget := step.probeField == edge.Target.Field
			innerField := edge.Field.Name
			if !outerIsTarget {
				innerField = edge.Target.Field.Name
			}
			op = trB(ctx, &batchJoinOp{
				ctx: ctx, child: op, algo: step.algo, snaps: stepSnaps[i],
				alias: step.alias, probeField: step.probeField,
				innerField: innerField, outerIsTarget: outerIsTarget,
				sim: edge, size: size, vec: step.vec, m: stepMetrics[i],
			}, cur, d.kernel)
		}
		if !isTrivial(pred) {
			op = trB(ctx, &batchFilterOp{ctx: ctx, child: op, pred: pred, alias: d.start},
				estFilterRows(startStats, pred, cur), e.filterKernel(pred))
		}
		return op
	}

	if !d.shardJoin {
		return wrapBatchParallel(ctx, d, func(shard, shards int) BatchOperator {
			return chain(startSnaps[0], shards, shard, shards)
		}), nil
	}
	// One chain per outer shard (the whole chain runs under the gather,
	// so per-chain Parallel buys nothing on top).
	children := make([]BatchOperator, len(startSnaps))
	for s, snap := range startSnaps {
		children[s] = chain(snap, len(startSnaps), 0, 1)
	}
	return trB(ctx, &batchGatherMergeOp{ctx: ctx, children: children, workers: d.workers,
		alias: d.start, mode: gatherByID, size: size}, -1, ""), nil
}
