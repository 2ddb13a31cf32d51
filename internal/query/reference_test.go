package query

// The reference evaluator: the paper's definition of a similarity query
// executed literally, with no planner, index, plan cache or distance
// kernel in sight. Relations are plain tuple lists in ascending id
// order; a statement is evaluated by walking its AST over them —
// the cross product of the FROM list, the WHERE predicate per binding,
// NEAREST by sorting every row on (dist, id), then ORDER BY, LIMIT and
// the projection. DML mutates the lists with the engine's documented
// id semantics (INSERT appends under the next id; UPDATE replaces each
// matched row, in ascending id order, by a fresh row under the next
// id).
//
// Rule-set distances come from the definitional semantics: the
// budget-bounded search over rewrite rules (internal/transform) when the
// budget allows at most one rule application and the strings are
// short, the full-matrix dynamic program (editdp.Calculator.Distance)
// otherwise, and enumeration of the pattern language with the DP
// against each member (patdist.EnumerateAndDP's search) for PATTERN
// targets.
// Vector distances are the metric's Dist with the target first.
//
// The binding's dist is set by the first similarity predicate that
// evaluates true, with AND/OR short-circuiting left to right. The
// engine agrees exactly whenever the statement has one similarity
// predicate; with several, which one sets dist follows the decided
// access path or join order, so callers compare such statements only
// where dist is not observed.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/transform"
)

// refRel is one relation of the model: its rows in ascending id order.
type refRel struct {
	rows   []relation.Tuple
	nextID int
}

func (r *refRel) insert(seq string, vec metric.Vector, attrs map[string]string) {
	r.rows = append(r.rows, relation.Tuple{ID: r.nextID, Seq: seq, Vec: vec, Attrs: attrs})
	r.nextID++
}

func (r *refRel) deleteIDs(ids []int) {
	dead := map[int]bool{}
	for _, id := range ids {
		dead[id] = true
	}
	kept := r.rows[:0]
	for _, t := range r.rows {
		if !dead[t.ID] {
			kept = append(kept, t)
		}
	}
	r.rows = kept
}

// refDB is the reference model: named relations plus the rule sets
// USING clauses may name.
type refDB struct {
	rels  map[string]*refRel
	rules map[string]*refRules
	langs map[string][]string // pattern language up to a length, by "len|pattern"
}

// refRules is one rule set with its two evaluators: the rewrite search
// (nil when the set is undecidable) and the DP (nil unless edit-like).
type refRules struct {
	minCost float64
	search  *transform.Engine
	calc    *editdp.Calculator
}

func newRefDB(rules ...*rewrite.RuleSet) *refDB {
	db := &refDB{rels: map[string]*refRel{}, rules: map[string]*refRules{}, langs: map[string][]string{}}
	for _, rs := range rules {
		r := &refRules{minCost: math.Inf(1)}
		for _, rule := range rs.Rules() {
			r.minCost = math.Min(r.minCost, rule.Cost)
		}
		r.search, _ = transform.NewEngine(rs)
		r.calc, _ = editdp.New(rs)
		db.rules[rs.Name()] = r
	}
	return db
}

// rel returns the named relation, creating it empty.
func (db *refDB) rel(name string) *refRel {
	r, ok := db.rels[name]
	if !ok {
		r = &refRel{}
		db.rels[name] = r
	}
	return r
}

// dump renders a relation's rows (id, seq, vec and sorted attributes).
func (r *refRel) dump() string {
	var b strings.Builder
	for _, t := range r.rows {
		dumpTuple(&b, t)
	}
	return b.String()
}

func dumpTuple(b *strings.Builder, t relation.Tuple) {
	keys := make([]string, 0, len(t.Attrs))
	for k := range t.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "%d\x1f%s\x1f%s", t.ID, t.Seq, t.Attr("vec"))
	for _, k := range keys {
		fmt.Fprintf(b, "\x1f%s=%s", k, t.Attrs[k])
	}
	b.WriteByte('\n')
}

// engineDump renders an engine relation in the refRel.dump format.
func engineDump(e *Engine, name string) string {
	tab, ok := e.Catalog().Lookup(name)
	if !ok {
		return ""
	}
	var b strings.Builder
	for _, t := range tab.Tuples() {
		dumpTuple(&b, t)
	}
	return b.String()
}

// refRow is one result row with the distance its binding carried.
type refRow struct {
	cells   []string
	dist    float64
	hasDist bool
}

// refResult is a statement's reference answer: every qualifying row in
// reference order, before LIMIT.
type refResult struct {
	cols  []string
	rows  []refRow
	limit int
	// groups partitions rows into runs whose internal order the engine
	// may permute: one group for an unordered result, equal-distance
	// runs under ORDER BY dist, one row per group for NEAREST (whose
	// (dist, id) order is total).
	groups [][]refRow
}

// refBinding is one candidate combination of tuples.
type refBinding struct {
	tuples  map[string]relation.Tuple
	order   []string // aliases in FROM order
	dist    float64
	hasDist bool
}

// run executes one statement against the model, mutating it for DML.
func (db *refDB) run(stmt Statement) (*refResult, error) {
	switch s := stmt.(type) {
	case *Query:
		return db.query(s)
	case *Mutation:
		n, err := db.mutate(s)
		if err != nil {
			return nil, err
		}
		row := refRow{cells: []string{strconv.Itoa(n)}}
		return &refResult{cols: []string{"count"}, rows: []refRow{row}, groups: [][]refRow{{row}}}, nil
	}
	return nil, fmt.Errorf("reference: unknown statement %T", stmt)
}

func (db *refDB) query(q *Query) (*refResult, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("reference: FROM clause required")
	}
	rels := make([]*refRel, len(q.From))
	for i, ref := range q.From {
		r, ok := db.rels[ref.Name]
		if !ok {
			return nil, fmt.Errorf("reference: unknown relation %q", ref.Name)
		}
		rels[i] = r
	}
	order := make([]string, len(q.From))
	for i, ref := range q.From {
		order[i] = ref.Alias
	}

	var bound []*refBinding
	exact := false
	if ne, ok := q.Where.(NearestExpr); ok {
		var err error
		if bound, err = db.nearest(ne, q.From[0].Alias, rels[0]); err != nil {
			return nil, err
		}
		exact = true
	} else {
		// The cross product in FROM order, each relation in id order.
		var walk func(i int, b map[string]relation.Tuple) error
		walk = func(i int, cur map[string]relation.Tuple) error {
			if i == len(rels) {
				b := &refBinding{tuples: map[string]relation.Tuple{}, order: order}
				for k, v := range cur {
					b.tuples[k] = v
				}
				ok, err := db.eval(q.Where, b)
				if err != nil {
					return err
				}
				if ok {
					bound = append(bound, b)
				}
				return nil
			}
			for _, t := range rels[i].rows {
				cur[order[i]] = t
				if err := walk(i+1, cur); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(0, map[string]relation.Tuple{}); err != nil {
			return nil, err
		}
	}

	if q.Order != OrderNone {
		key := func(b *refBinding) float64 {
			switch {
			case b.hasDist:
				return b.dist
			case q.Order == OrderDesc:
				return math.Inf(-1) // dist-less rows sort last either way
			default:
				return math.Inf(1)
			}
		}
		sort.SliceStable(bound, func(i, j int) bool {
			if q.Order == OrderDesc {
				return key(bound[i]) > key(bound[j])
			}
			return key(bound[i]) < key(bound[j])
		})
	}

	res := &refResult{cols: refColumns(q), limit: q.Limit}
	for _, b := range bound {
		cells, err := refProject(q, b)
		if err != nil {
			return nil, err
		}
		res.rows = append(res.rows, refRow{cells: cells, dist: b.dist, hasDist: b.hasDist})
	}
	switch {
	case exact:
		for _, r := range res.rows {
			res.groups = append(res.groups, []refRow{r})
		}
	case q.Order == OrderNone:
		res.groups = [][]refRow{res.rows}
	default:
		for i, r := range res.rows {
			if i > 0 {
				p := res.rows[i-1]
				if p.hasDist == r.hasDist && (!r.hasDist || p.dist == r.dist) {
					last := len(res.groups) - 1
					res.groups[last] = append(res.groups[last], r)
					continue
				}
			}
			res.groups = append(res.groups, []refRow{r})
		}
	}
	return res, nil
}

// nearest ranks every row of the relation by its distance to the
// target and keeps the k best in (dist, id) order; unreachable rows and
// rows without a vector never qualify.
func (db *refDB) nearest(ne NearestExpr, alias string, r *refRel) ([]*refBinding, error) {
	var out []*refBinding
	for _, t := range r.rows {
		var d float64
		if ne.Field.Name == "vec" || ne.Target.IsVec {
			m, ok := metric.Lookup(ne.RuleSet)
			if !ok {
				return nil, fmt.Errorf("reference: unknown metric %q", ne.RuleSet)
			}
			if t.Vec == nil {
				continue
			}
			d = m.Dist(ne.Target.Vec, t.Vec)
		} else {
			if ne.Field.Name != "seq" {
				return nil, fmt.Errorf("reference: string NEAREST ranks seq, not %q", ne.Field.Name)
			}
			c, err := db.calc(ne.RuleSet)
			if err != nil {
				return nil, err
			}
			d = c.Distance(t.Attr(ne.Field.Name), ne.Target.Lit)
			if math.IsInf(d, 1) {
				continue
			}
		}
		out = append(out, &refBinding{
			tuples: map[string]relation.Tuple{alias: t}, order: []string{alias},
			dist: d, hasDist: true,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].dist != out[j].dist {
			return out[i].dist < out[j].dist
		}
		return out[i].tuples[alias].ID < out[j].tuples[alias].ID
	})
	if len(out) > ne.K {
		out = out[:ne.K]
	}
	return out, nil
}

// eval evaluates a predicate on one binding, left to right with
// short-circuiting; the first similarity predicate that holds sets the
// binding's dist.
func (db *refDB) eval(ex Expr, b *refBinding) (bool, error) {
	switch ex := ex.(type) {
	case nil:
		return true, nil
	case AndExpr:
		l, err := db.eval(ex.L, b)
		if err != nil || !l {
			return false, err
		}
		return db.eval(ex.R, b)
	case OrExpr:
		l, err := db.eval(ex.L, b)
		if err != nil || l {
			return l, err
		}
		return db.eval(ex.R, b)
	case NotExpr:
		v, err := db.eval(ex.E, b)
		return !v, err
	case CmpExpr:
		l, err := refOperand(ex.L, b)
		if err != nil {
			return false, err
		}
		r, err := refOperand(ex.R, b)
		if err != nil {
			return false, err
		}
		return (l == r) != ex.Neq, nil
	case SimExpr:
		d, ok, err := db.sim(ex, b)
		if err != nil {
			return false, err
		}
		if ok && !b.hasDist {
			b.dist, b.hasDist = d, true
		}
		return ok, nil
	case NearestExpr:
		return false, fmt.Errorf("reference: NEAREST must be the entire WHERE clause")
	}
	return false, fmt.Errorf("reference: unknown expression %T", ex)
}

// sim decides one similarity predicate: d(field -> target) <= radius.
func (db *refDB) sim(ex SimExpr, b *refBinding) (float64, bool, error) {
	if ex.Field.Name == "vec" || ex.Target.IsVec {
		m, ok := metric.Lookup(ex.RuleSet)
		if !ok {
			return 0, false, fmt.Errorf("reference: unknown metric %q", ex.RuleSet)
		}
		ft, err := refTuple(ex.Field, b)
		if err != nil {
			return 0, false, err
		}
		target := ex.Target.Vec
		if !ex.Target.IsVec {
			tt, err := refTuple(ex.Target.Field, b)
			if err != nil {
				return 0, false, err
			}
			target = tt.Vec
		}
		if ft.Vec == nil || target == nil {
			return 0, false, nil
		}
		d := m.Dist(target, ft.Vec)
		return d, d <= ex.Radius, nil
	}
	x, err := refField(ex.Field, b)
	if err != nil {
		return 0, false, err
	}
	if ex.Pattern {
		c, err := db.calc(ex.RuleSet)
		if err != nil {
			return 0, false, err
		}
		// A member y within the budget has |y| <= |x| + budget/minIns,
		// so enumerating up to that length decides the predicate exactly.
		maxLen := len(x) + 16
		if ins := c.MinInsCost(); ins > 0 && ex.Radius/ins < 16 {
			maxLen = len(x) + int(ex.Radius/ins)
		}
		members, err := db.members(ex.Target.Lit, maxLen)
		if err != nil {
			return 0, false, err
		}
		// patdist.EnumerateAndDP's search, over a memoised enumeration.
		best := math.Inf(1)
		for _, y := range members {
			best = math.Min(best, c.Distance(x, y))
		}
		return best, best <= ex.Radius, nil
	}
	target, err := refOperand(ex.Target, b)
	if err != nil {
		return 0, false, err
	}
	return db.distance(ex.RuleSet, x, target, ex.Radius)
}

// members enumerates the language of a pattern up to maxLen.
func (db *refDB) members(src string, maxLen int) ([]string, error) {
	key := strconv.Itoa(maxLen) + "|" + src
	if m, ok := db.langs[key]; ok {
		return m, nil
	}
	p, err := pattern.Compile(src)
	if err != nil {
		return nil, err
	}
	m := p.Enumerate(maxLen, 1<<20)
	db.langs[key] = m
	return m, nil
}

// distance is the transformation distance from x to y under the named
// rule set when it is at most budget: the rewrite search itself when at
// most one rule application fits the budget and both strings are
// short, the full-matrix DP otherwise.
func (db *refDB) distance(rsName, x, y string, budget float64) (float64, bool, error) {
	rs, ok := db.rules[rsName]
	if !ok {
		return 0, false, fmt.Errorf("reference: unknown rule set %q", rsName)
	}
	if rs.search != nil && (rs.calc == nil || budget < 2*rs.minCost && len(x) <= 8 && len(y) <= 8) {
		return rs.search.Distance(x, y, budget)
	}
	if rs.calc == nil {
		return 0, false, fmt.Errorf("reference: rule set %q has no evaluator", rsName)
	}
	d := rs.calc.Distance(x, y)
	return d, d <= budget, nil
}

// calc returns the DP evaluator of an edit-like rule set.
func (db *refDB) calc(rsName string) (*editdp.Calculator, error) {
	rs, ok := db.rules[rsName]
	if !ok {
		return nil, fmt.Errorf("reference: unknown rule set %q", rsName)
	}
	if rs.calc == nil {
		return nil, fmt.Errorf("reference: rule set %q is not edit-like", rsName)
	}
	return rs.calc, nil
}

// refTuple resolves the tuple a field reference binds to.
func refTuple(f FieldRef, b *refBinding) (relation.Tuple, error) {
	if f.Table != "" {
		t, ok := b.tuples[f.Table]
		if !ok {
			return relation.Tuple{}, fmt.Errorf("reference: unknown alias %q", f.Table)
		}
		return t, nil
	}
	if len(b.order) != 1 {
		return relation.Tuple{}, fmt.Errorf("reference: ambiguous field %q", f.Name)
	}
	return b.tuples[b.order[0]], nil
}

func refField(f FieldRef, b *refBinding) (string, error) {
	if f.Name == "dist" {
		if !b.hasDist {
			return "", fmt.Errorf("reference: dist is not available here")
		}
		return formatDist(b.dist), nil
	}
	t, err := refTuple(f, b)
	if err != nil {
		return "", err
	}
	return t.Attr(f.Name), nil
}

func refOperand(o Operand, b *refBinding) (string, error) {
	if o.IsLit {
		return o.Lit, nil
	}
	return refField(o.Field, b)
}

// refColumns is the result header: the SELECT list, or for '*' the id
// and seq of every alias (prefixed once several are in scope) and dist.
func refColumns(q *Query) []string {
	var cols []string
	for _, c := range q.Select {
		cols = append(cols, c.String())
	}
	if len(q.Select) > 0 {
		return cols
	}
	for _, ref := range q.From {
		prefix := ""
		if len(q.From) > 1 {
			prefix = ref.Alias + "."
		}
		cols = append(cols, prefix+"id", prefix+"seq")
	}
	return append(cols, "dist")
}

func refProject(q *Query, b *refBinding) ([]string, error) {
	var cells []string
	for _, c := range q.Select {
		v, err := refField(FieldRef{Table: c.Table, Name: c.Name}, b)
		if err != nil {
			return nil, err
		}
		cells = append(cells, v)
	}
	if len(q.Select) > 0 {
		return cells, nil
	}
	for _, alias := range b.order {
		t := b.tuples[alias]
		cells = append(cells, strconv.Itoa(t.ID), t.Seq)
	}
	d := ""
	if b.hasDist {
		d = formatDist(b.dist)
	}
	return append(cells, d), nil
}

// mutate applies one DML statement and returns the affected row count.
func (db *refDB) mutate(m *Mutation) (int, error) {
	r, ok := db.rels[m.Table]
	if !ok {
		return 0, fmt.Errorf("reference: unknown relation %q", m.Table)
	}
	if m.Kind == MutInsert {
		for _, row := range m.Rows {
			var seq string
			var vec metric.Vector
			var attrs map[string]string
			for i, v := range row {
				switch col := m.Columns[i]; col {
				case "seq":
					seq = v.Lit
				case "vec":
					var err error
					if vec, err = refVec(v); err != nil {
						return 0, err
					}
				default:
					if attrs == nil {
						attrs = map[string]string{}
					}
					attrs[col] = v.Lit
				}
			}
			r.insert(seq, vec, attrs)
		}
		return len(m.Rows), nil
	}
	var ids []int
	for _, t := range r.rows {
		b := &refBinding{tuples: map[string]relation.Tuple{m.Table: t}, order: []string{m.Table}}
		ok, err := db.eval(m.Where, b)
		if err != nil {
			return 0, err
		}
		if ok {
			ids = append(ids, t.ID)
		}
	}
	if m.Kind == MutDelete {
		r.deleteIDs(ids)
		return len(ids), nil
	}
	for _, id := range ids {
		var old relation.Tuple
		for _, t := range r.rows {
			if t.ID == id {
				old = t
			}
		}
		seq, vec := old.Seq, old.Vec
		var attrs map[string]string
		for k, v := range old.Attrs {
			if attrs == nil {
				attrs = map[string]string{}
			}
			attrs[k] = v
		}
		for _, sc := range m.Set {
			switch sc.Name {
			case "seq":
				seq = sc.Value.Lit
			case "vec":
				var err error
				if vec, err = refVec(sc.Value); err != nil {
					return 0, err
				}
			default:
				if attrs == nil {
					attrs = map[string]string{}
				}
				attrs[sc.Name] = sc.Value.Lit
			}
		}
		r.deleteIDs([]int{id})
		r.insert(seq, vec, attrs)
	}
	return len(ids), nil
}

// refVec reads a vec-column DML value: a vector literal, or a string in
// the vector-literal form.
func refVec(v Operand) (metric.Vector, error) {
	if v.IsVec {
		return v.Vec, nil
	}
	return metric.Parse(v.Lit)
}

// check reports whether an engine result is a correct answer under the
// reference: the same header, every row drawn from the reference rows
// group by group (rows within a group in any order), and as many rows
// as the reference has, capped by LIMIT.
func (ref *refResult) check(res *Result) error {
	if strings.Join(res.Columns, "\x1f") != strings.Join(ref.cols, "\x1f") {
		return fmt.Errorf("columns %v, reference %v", res.Columns, ref.cols)
	}
	want := len(ref.rows)
	if ref.limit > 0 && ref.limit < want {
		want = ref.limit
	}
	if len(res.Rows) != want {
		return fmt.Errorf("%d rows, reference %d", len(res.Rows), want)
	}
	gi := 0
	remaining := map[string]int{}
	for i, row := range res.Rows {
		key := strings.Join(row, "\x1f")
		for len(remaining) == 0 && gi < len(ref.groups) {
			for _, r := range ref.groups[gi] {
				remaining[strings.Join(r.cells, "\x1f")]++
			}
			gi++
		}
		if remaining[key] == 0 {
			return fmt.Errorf("row %d %q is not the reference's next row", i, key)
		}
		if remaining[key]--; remaining[key] == 0 {
			delete(remaining, key)
		}
	}
	return nil
}

// String renders the reference rows in reference order, for failure
// messages.
func (ref *refResult) String() string {
	lines := make([]string, len(ref.rows))
	for i, r := range ref.rows {
		lines[i] = strings.Join(r.cells, "\x1f")
	}
	return strings.Join(lines, "\n")
}
