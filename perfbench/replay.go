package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// replayTrace is the first trace id of in-process replay spans, so they
// never share an id with the HTTP pass's client spans.
const replayTrace = 1 << 30

// planCacheSize is simqd's default -plan-cache capacity.
const planCacheSize = 512

// newEngine builds an in-process engine the way simqd does with its
// default flags: the relations loaded from the same files, the default
// "edits" rule set, and query.NewEngine's defaults (256-row blocks,
// GOMAXPROCS workers, a 512-entry plan cache).
func newEngine(loads []string, opts ...query.Option) (*query.Engine, error) {
	cat := relation.NewCatalog()
	for _, l := range loads {
		name, file, _ := strings.Cut(l, "=")
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		rel, err := relation.Load(name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		cat.Add(rel)
	}
	return engineOver(cat, opts...)
}

func engineOver(cat *relation.Catalog, opts ...query.Option) (*query.Engine, error) {
	eng := query.NewEngine(cat, opts...)
	rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules())
	if err := eng.RegisterRuleSet(rs); err != nil {
		return nil, err
	}
	return eng, nil
}

// engineLayers accumulates the per-layer figures of an in-process
// replay, one operation at a time.
type engineLayers struct {
	ops                                     int
	self                                    map[string]float64 // ms by operator family
	rows, batches                           int64
	resultRows                              int
	nodes, pruned, cands, verifs, abandoned int
	parse, plan                             []float64 // us, where measured
	execMS, parseMS, planMS, rootMS         float64   // attributed, for the waterfall
}

// add folds one traced execution in. parse and plan are the times
// attributed to the statement (zero on a plan-cache hit, which skips
// both).
func (l *engineLayers) add(res *query.Result, exec, parse, plan time.Duration) {
	l.ops++
	rows, batches := selfTimes(res.Trace, l.self)
	l.rows += rows
	l.batches += batches
	l.resultRows += len(res.Rows)
	st := res.Stats
	l.nodes += st.Nodes
	l.pruned += st.Pruned
	l.cands += st.Candidates
	l.verifs += st.Verifications
	l.abandoned += st.Abandoned
	l.execMS += ms(exec)
	l.parseMS += ms(parse)
	l.planMS += ms(plan)
	if res.Trace != nil {
		l.rootMS += float64(res.Trace.WallNS) / 1e6
	}
}

// report writes the engine-side per-layer metrics and the waterfall.
func (r *runner) reportEngine(l *engineLayers, untracedMS, allocBytes, allocs float64) {
	n := float64(l.ops)
	for _, op := range execOps {
		r.metrics["query.exec_self_ms."+op] = ratio(l.self[op], n)
	}
	residual := l.execMS - l.parseMS - l.planMS - l.rootMS
	r.metrics["query.exec_residual_ms"] = ratio(residual, n)
	r.metrics["query.parse_us_p50"] = summarize(l.parse).p50
	r.metrics["query.plan_us_p50"] = summarize(l.plan).p50
	r.metrics["query.rows_per_op"] = ratio(float64(l.rows), n)
	r.metrics["query.batches_per_op"] = ratio(float64(l.batches), n)
	r.metrics["query.alloc_bytes_per_op"] = allocBytes
	r.metrics["query.allocs_per_op"] = allocs
	r.metrics["index.nodes_per_op"] = ratio(float64(l.nodes), n)
	r.metrics["index.pruned_per_op"] = ratio(float64(l.pruned), n)
	r.metrics["index.candidates_per_row"] = ratio(float64(l.cands), float64(l.resultRows))
	r.metrics["kernel.verifications_per_op"] = ratio(float64(l.verifs), n)
	r.metrics["kernel.rows_per_verification"] = ratio(float64(l.resultRows), float64(l.verifs))
	r.metrics["kernel.abandoned_ratio"] = ratio(float64(l.abandoned), float64(l.verifs))
	r.metrics["trace.overhead_ratio"] = ratio(l.execMS, untracedMS)
	r.note("waterfall (mean ms per statement, in process): engine %.4f = parse %.4f + plan %.4f + exec root %.4f + residual %.4f",
		ratio(l.execMS, n), ratio(l.parseMS, n), ratio(l.planMS, n), ratio(l.rootMS, n), ratio(residual, n))
	var parts []string
	for _, op := range execOps {
		if v := ratio(l.self[op], n); v > 0 {
			parts = append(parts, fmt.Sprintf("%s %.4f", op, v))
		}
	}
	r.note("  exec root %.4f = %s", ratio(l.rootMS, n), strings.Join(parts, " + "))
	r.note("trace overhead: traced %.1fms / untraced %.1fms over %d statements", l.execMS, untracedMS, l.ops)
}

// replayer runs statements in process, untimed, timed or traced.
type replayer struct {
	r            *runner
	eng, planEng *query.Engine // planEng has no plan cache, so EXPLAIN leaves eng's alone
	l            *engineLayers
	untraced     time.Duration // total Execute time of the untraced pass
	trace        int           // next trace id
}

func (r *runner) newReplayer(eng *query.Engine) (*replayer, error) {
	planEng, err := engineOver(eng.Catalog(), query.WithPlanCacheSize(0))
	if err != nil {
		return nil, err
	}
	return &replayer{r: r, eng: eng, planEng: planEng, l: &engineLayers{self: map[string]float64{}}, trace: replayTrace}, nil
}

func (p *replayer) run(q *stmt) (*query.Result, error) {
	res, err := p.eng.Execute(q.text)
	if err != nil {
		return nil, fmt.Errorf("replay %q: %w", q.text, err)
	}
	return res, nil
}

// warm resets the plan cache and runs the warm-up statements, so every
// pass starts from the same cache state: the traced pass then hits the
// cache exactly as often as the untraced one.
func (p *replayer) warm(qs []*stmt) error {
	p.eng.SetPlanCacheSize(planCacheSize)
	for _, q := range qs {
		if _, err := p.run(q); err != nil {
			return err
		}
	}
	return nil
}

// timed runs q untraced and adds its Execute time to the baseline.
func (p *replayer) timed(q *stmt) error {
	t := time.Now()
	_, err := p.run(q)
	p.untraced += time.Since(t)
	return err
}

// traced runs q with engine tracing on, and times query.Parse and the
// plan (EXPLAIN on the text, less its parse) beside it. Parse and plan
// are attributed to the statement only where the engine ran them: a
// plan-cache hit skips both.
func (p *replayer) traced(q *stmt) (*query.Result, error) {
	t := time.Now()
	if _, err := query.Parse(q.text); err != nil {
		return nil, err
	}
	parse := time.Since(t)
	t = time.Now()
	res, err := p.run(q)
	exec := time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	_, err = p.planEng.Execute("EXPLAIN " + q.text)
	plan := time.Since(t) - parse
	if err != nil {
		return nil, err
	}
	p.l.parse = append(p.l.parse, float64(parse)/1e3)
	p.l.plan = append(p.l.plan, float64(plan)/1e3)
	if res.Stats.PlanCacheHit {
		parse, plan = 0, 0
	}
	p.l.add(res, exec, parse, plan)
	p.trace++
	root := p.r.addSpan(p.trace, -1, "engine.execute", 0, float64(exec)/1e3)
	if parse > 0 {
		p.r.addSpan(p.trace, root, "query.parse", 0, float64(parse)/1e3)
	}
	if plan > 0 {
		p.r.addSpan(p.trace, root, "query.plan", 0, float64(plan)/1e3)
	}
	p.r.addEngineTrace(p.trace, root, res.Trace)
	return res, nil
}

// memDelta measures heap allocation across f, per operation.
func memDelta(f func() (ops int, err error)) (bytesPerOp, allocsPerOp float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	n, err := f()
	runtime.ReadMemStats(&m1)
	if n == 0 {
		return 0, 0, err
	}
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), err
}

// replayReads replays the first operations of an HTTP read workload's
// sequence in process: once untraced (allocation counts and the
// baseline for the tracing overhead), then the same operations traced.
// The untraced pass is capped at half the run length.
func (r *runner) replayReads(spec *readSpec, n int) error {
	eng, err := newEngine(spec.loads)
	if err != nil {
		return err
	}
	p, err := r.newReplayer(eng)
	if err != nil {
		return err
	}
	if err := p.warm(spec.warm); err != nil {
		return err
	}
	budget := time.Now().Add(time.Duration(r.seconds) * time.Second / 2)
	m := 0
	allocBytes, allocs, err := memDelta(func() (int, error) {
		for ; m < n && time.Now().Before(budget); m++ {
			if err := p.timed(spec.next(m)); err != nil {
				return m, err
			}
		}
		return m, nil
	})
	if err != nil {
		return err
	}
	if err := p.warm(spec.warm); err != nil {
		return err
	}
	eng.SetTracing(true)
	for i := 0; i < m; i++ {
		if _, err := p.traced(spec.next(i)); err != nil {
			return err
		}
	}
	r.reportEngine(p.l, ms(p.untraced), allocBytes, allocs)
	return nil
}
