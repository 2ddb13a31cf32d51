package rtree

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNonFinite reports a NaN or infinite coordinate. The tree rejects
// such points: a NaN compares false against every bound, so it would
// sit inside every rectangle and match every query.
var ErrNonFinite = errors.New("rtree: non-finite coordinate")

// Entry is one indexed point with its caller-assigned identifier.
type Entry struct {
	ID    int
	Point []float64
}

// Tree is an in-memory R*-tree over points. Not safe for concurrent
// mutation; concurrent searches of an immutable tree are fine.
type Tree struct {
	dim  int
	max  int // max entries per node
	min  int // min entries per node (fill guarantee)
	root *node
	size int

	// reinserted records that the running Insert has used its forced
	// reinsertion. R* allows one per level and insertion; only leaves
	// reinsert here, so one flag covers it.
	reinserted bool
	// points is the unused tail of the current point arena: Insert
	// copies each point into it, one allocation per pointChunk points.
	points []float64
	s      scratch
}

// pointChunk is the number of points per arena allocation.
const pointChunk = 256

// scratch holds the buffers insertion works in, sized once by New, so
// an Insert allocates only when it creates a node.
type scratch struct {
	enlarged  []float64 // a child box grown to cover the new point
	enl, area []float64 // per child: area enlargement and area
	center    []float64
	// chooseSplit: 2*dim bounds per item (mins, then maxes), their
	// prefix and suffix unions, and the sort state of the orderings.
	boxes, pre, suf []float64
	axis            splitOrder
	best            []int
	dist            byDistDesc // reinsertLeaf: entries with distances
	victims         []Entry
	entries         []Entry // a split leaf's entries in split order
	children        []*node // a split node's children in split order
}

type node struct {
	leaf     bool
	rect     Rect    // owned by the node and updated in place
	children []*node // internal nodes
	entries  []Entry // leaf nodes
	level    int     // 0 = leaf
}

// New returns an empty tree for points of the given dimensionality.
// maxEntries <= 0 selects the default of 32 (min = 40% of max, per the
// R* paper's recommendation).
func New(dim, maxEntries int) (*Tree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("rtree: dimension must be positive, got %d", dim)
	}
	if maxEntries <= 0 {
		maxEntries = 32
	}
	if maxEntries < 4 {
		return nil, fmt.Errorf("rtree: maxEntries must be >= 4, got %d", maxEntries)
	}
	mn := maxEntries * 2 / 5
	if mn < 2 {
		mn = 2
	}
	over := maxEntries + 1 // an overflowing node's fill
	t := &Tree{dim: dim, max: maxEntries, min: mn}
	t.s = scratch{
		enlarged: make([]float64, 2*dim),
		enl:      make([]float64, over),
		area:     make([]float64, over),
		center:   make([]float64, dim),
		boxes:    make([]float64, over*2*dim),
		pre:      make([]float64, over*2*dim),
		suf:      make([]float64, over*2*dim),
		axis:     splitOrder{keys: make([]float64, over), order: make([]int, over)},
		best:     make([]int, over),
		dist:     byDistDesc{d: make([]float64, over)},
		victims:  make([]Entry, 0, over),
		entries:  make([]Entry, 0, over),
		children: make([]*node, 0, over),
	}
	return t, nil
}

// Dim returns the point dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (0 for the empty tree, 1 for a single
// leaf).
func (t *Tree) Height() int {
	if t.root == nil {
		return 0
	}
	return t.root.level + 1
}

// Insert adds a point with an identifier. Points with a NaN or
// infinite coordinate are rejected with ErrNonFinite.
func (t *Tree) Insert(id int, p []float64) error {
	if len(p) != t.dim {
		return fmt.Errorf("rtree: point dim %d, want %d", len(p), t.dim)
	}
	for i, x := range p {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: %g in dim %d", ErrNonFinite, x, i)
		}
	}
	if len(t.points) < t.dim {
		t.points = make([]float64, pointChunk*t.dim)
	}
	q := t.points[:t.dim:t.dim]
	t.points = t.points[t.dim:]
	copy(q, p)
	if t.root == nil {
		t.root = t.newNode(true, 0)
		copy(t.root.rect.Min, q)
		copy(t.root.rect.Max, q)
	}
	t.reinserted = false
	t.insertEntry(Entry{ID: id, Point: q})
	t.size++
	return nil
}

// newNode returns an empty node whose rectangle owns its bounds.
func (t *Tree) newNode(leaf bool, level int) *node {
	b := make([]float64, 2*t.dim)
	n := &node{leaf: leaf, level: level, rect: Rect{Min: b[:t.dim:t.dim], Max: b[t.dim:]}}
	if leaf {
		n.entries = make([]Entry, 0, t.max+1)
	} else {
		n.children = make([]*node, 0, t.max+1)
	}
	return n
}

// insertEntry performs R* insertion of a point entry from the root.
func (t *Tree) insertEntry(e Entry) {
	split := t.insertAt(t.root, e)
	if split != nil {
		old := t.root
		t.root = t.newNode(false, old.level+1)
		t.root.children = append(t.root.children, old, split)
		copy(t.root.rect.Min, old.rect.Min)
		copy(t.root.rect.Max, old.rect.Max)
		t.root.rect.grow(split.rect.Min, split.rect.Max)
	}
}

// insertAt descends to a leaf and handles overflow on the way back up.
// It returns a split sibling to be installed by the caller, or nil.
func (t *Tree) insertAt(n *node, e Entry) *node {
	n.rect.grow(e.Point, e.Point)
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.max {
			return t.overflowLeaf(n)
		}
		return nil
	}
	split := t.insertAt(t.chooseSubtree(n, e.Point), e)
	if split != nil {
		n.children = append(n.children, split)
		if len(n.children) > t.max {
			// Forced reinsertion of subtrees is rarely worth the
			// complexity in memory; the original paper applies it on all
			// levels, most implementations only on leaves. Internal
			// nodes split directly.
			return t.splitInternal(n)
		}
	}
	n.tighten()
	return nil
}

// chooseSubtree implements the R* descent criterion for point p: at
// the level above the leaves, least overlap of the enlarged child
// rectangle with its siblings, ties by least area enlargement, then
// smaller area; elsewhere least area enlargement, ties by smaller area.
// Remaining ties go to the first child.
func (t *Tree) chooseSubtree(n *node, p []float64) *node {
	enl, area := t.s.enl, t.s.area
	guess, gEnl, gArea := 0, math.Inf(1), math.Inf(1)
	for i, c := range n.children {
		enl[i], area[i] = enlargement(c.rect, p)
		if enl[i] < gEnl || (enl[i] == gEnl && area[i] < gArea) {
			guess, gEnl, gArea = i, enl[i], area[i]
		}
	}
	if n.level != 1 {
		return n.children[guess]
	}
	count := len(n.children)
	t.childBoxes(n)
	// Overlap sums have non-negative terms, so they only grow term by
	// term: a child is ruled out once its partial sum exceeds the best
	// complete sum so far, or the sum of the least-enlargement child,
	// summed first as a likely winner. The scan's winner never has more
	// overlap than any other child, so a child ruled out by either bound
	// would have lost anyway.
	bound, _ := t.overlapSum(count, guess, p, math.Inf(1))
	best, bestOverlap, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1), math.Inf(1)
	for i := range n.children {
		overlap := bound
		if i != guess {
			limit := bestOverlap
			if bound < limit {
				limit = bound
			}
			var ok bool
			if overlap, ok = t.overlapSum(count, i, p, limit); !ok {
				continue
			}
		}
		if overlap < bestOverlap ||
			(overlap == bestOverlap && enl[i] < bestEnl) ||
			(overlap == bestOverlap && enl[i] == bestEnl && area[i] < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, overlap, enl[i], area[i]
		}
	}
	return n.children[best]
}

// enlargement returns the area increase of r covering p as well, and
// the area of r.
func enlargement(r Rect, p []float64) (enl, area float64) {
	grown, area := 1.0, 1.0
	for i, x := range p {
		lo, hi := r.Min[i], r.Max[i]
		area *= hi - lo
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		grown *= hi - lo
	}
	return grown - area, area
}

// overlapSum returns the summed intersection volume of child i's
// rectangle, enlarged to cover p, with each of its siblings. It gives
// up (ok = false) as soon as the partial sum exceeds limit. The
// children's bounds are read from the flat copy chooseSubtree gathers
// into scratch boxes.
func (t *Tree) overlapSum(count, i int, p []float64, limit float64) (sum float64, ok bool) {
	d, d2 := t.dim, 2*t.dim
	kids := t.s.boxes[:count*d2]
	e := t.s.enlarged
	copy(e, kids[i*d2:(i+1)*d2])
	for k, x := range p {
		if x < e[k] {
			e[k] = x
		}
		if x > e[d+k] {
			e[d+k] = x
		}
	}
	for j := 0; j < count; j++ {
		if j == i {
			continue
		}
		if sum += boxOverlap(e, kids[j*d2:(j+1)*d2]); sum > limit {
			return sum, false
		}
	}
	return sum, true
}

// childBoxes flattens n's child rectangles into the scratch boxes.
func (t *Tree) childBoxes(n *node) {
	d2 := 2 * t.dim
	for i, c := range n.children {
		copy(t.s.boxes[i*d2:], c.rect.Min)
		copy(t.s.boxes[i*d2+t.dim:], c.rect.Max)
	}
}

// overflowLeaf applies forced reinsertion on the first leaf overflow of
// an insertion, splitting otherwise.
func (t *Tree) overflowLeaf(n *node) *node {
	if n != t.root && !t.reinserted {
		t.reinserted = true
		t.reinsertLeaf(n)
		return nil
	}
	return t.splitLeaf(n)
}

// reinsertLeaf removes the p entries farthest from the node center and
// reinserts them from the top (R* forced reinsert, p = 30%).
func (t *Tree) reinsertLeaf(n *node) {
	p := len(n.entries) * 3 / 10
	if p < 1 {
		p = 1
	}
	center := t.s.center
	for i := range center {
		center[i] = (n.rect.Min[i] + n.rect.Max[i]) / 2
	}
	byDist := &t.s.dist
	byDist.e, byDist.d = n.entries, byDist.d[:len(n.entries)]
	for i, e := range n.entries {
		byDist.d[i] = sqDist(e.Point, center)
	}
	sort.Sort(byDist)
	victims := append(t.s.victims[:0], n.entries[:p]...)
	n.entries = append(n.entries[:0], n.entries[p:]...)
	n.tighten()
	for _, e := range victims {
		t.insertEntry(e)
	}
}

// byDistDesc sorts leaf entries by descending squared distance d[i]
// of entry e[i] from the leaf center. As with splitOrder, the order of
// ties is pdqsort's and part of the pinned tree shape.
type byDistDesc struct {
	e []Entry
	d []float64
}

func (s *byDistDesc) Len() int           { return len(s.e) }
func (s *byDistDesc) Less(i, j int) bool { return s.d[i] > s.d[j] }
func (s *byDistDesc) Swap(i, j int) {
	s.e[i], s.e[j] = s.e[j], s.e[i]
	s.d[i], s.d[j] = s.d[j], s.d[i]
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// splitLeaf applies the R* split to a leaf and returns the new sibling.
func (t *Tree) splitLeaf(n *node) *node {
	d2 := 2 * t.dim
	for i, e := range n.entries {
		copy(t.s.boxes[i*d2:], e.Point)
		copy(t.s.boxes[i*d2+t.dim:], e.Point)
	}
	order, cut := t.chooseSplit(len(n.entries))
	staged := t.s.entries[:0]
	for _, idx := range order {
		staged = append(staged, n.entries[idx])
	}
	right := t.newNode(true, n.level)
	n.entries = append(n.entries[:0], staged[:cut]...)
	right.entries = append(right.entries, staged[cut:]...)
	n.tighten()
	right.tighten()
	return right
}

// splitInternal applies the R* split to an internal node and returns
// the new sibling.
func (t *Tree) splitInternal(n *node) *node {
	t.childBoxes(n)
	order, cut := t.chooseSplit(len(n.children))
	staged := t.s.children[:0]
	for _, idx := range order {
		staged = append(staged, n.children[idx])
	}
	right := t.newNode(false, n.level)
	n.children = append(n.children[:0], staged[:cut]...)
	right.children = append(right.children, staged[cut:]...)
	n.tighten()
	right.tighten()
	return right
}

// chooseSplit implements the R* ChooseSplitAxis / ChooseSplitIndex over
// the first total boxes in scratch: for every axis, sort by min then
// max; sum the margins of all legal distributions; pick the ordering
// with the least margin sum (the first on ties), then the distribution
// with least overlap (ties: least total area, then the first). It
// returns the winning ordering and the cut position.
//
// The two groups of every distribution of an ordering are its prefix
// and suffix unions, computed once per ordering. Min and max are exact,
// so every margin, overlap and area equals that of the group built
// box by box.
func (t *Tree) chooseSplit(total int) ([]int, int) {
	d2 := 2 * t.dim
	pre, suf := t.s.pre, t.s.suf
	sorter := &t.s.axis
	sorter.keys, sorter.order = sorter.keys[:total], sorter.order[:total]
	best := t.s.best[:total]
	for i := range best {
		best[i] = i
	}
	bestMargin := math.Inf(1)
	for axis := 0; axis < t.dim; axis++ {
		for _, key := range [2]int{axis, t.dim + axis} { // by min, then by max
			for i := range sorter.order {
				sorter.order[i] = i
				sorter.keys[i] = t.s.boxes[i*d2+key]
			}
			sort.Sort(sorter)
			t.unions(sorter.order)
			margin := 0.0
			for cut := t.min; cut <= total-t.min; cut++ {
				margin += boxMargin(pre[(cut-1)*d2:cut*d2]) + boxMargin(suf[cut*d2:(cut+1)*d2])
			}
			if margin < bestMargin {
				bestMargin = margin
				copy(best, sorter.order)
			}
		}
	}
	t.unions(best)
	bestCut, bestOverlap, bestArea := t.min, math.Inf(1), math.Inf(1)
	for cut := t.min; cut <= total-t.min; cut++ {
		l, r := pre[(cut-1)*d2:cut*d2], suf[cut*d2:(cut+1)*d2]
		ov := boxOverlap(l, r)
		area := boxArea(l) + boxArea(r)
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestCut, bestOverlap, bestArea = cut, ov, area
		}
	}
	return best, bestCut
}

// splitOrder sorts item indices by one bound coordinate; keys[i] is the
// key of item order[i]. The sort is not stable: which of two equal
// keys comes first is decided by pdqsort (the same in sort.Sort and
// sort.Slice) and is part of the tree shape TestTreeShapeGolden pins.
type splitOrder struct {
	keys  []float64
	order []int
}

func (s *splitOrder) Len() int           { return len(s.order) }
func (s *splitOrder) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *splitOrder) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.order[i], s.order[j] = s.order[j], s.order[i]
}

// unions fills the scratch prefix and suffix boxes of an ordering of
// the scratch boxes: pre[k] covers order[:k+1], suf[k] covers order[k:].
func (t *Tree) unions(order []int) {
	d2 := 2 * t.dim
	boxes, pre, suf := t.s.boxes, t.s.pre, t.s.suf
	last := len(order) - 1
	copy(pre[:d2], boxes[order[0]*d2:])
	for k := 1; k <= last; k++ {
		cur := pre[k*d2 : (k+1)*d2]
		copy(cur, pre[(k-1)*d2:k*d2])
		growBox(cur, boxes[order[k]*d2:(order[k]+1)*d2])
	}
	copy(suf[last*d2:(last+1)*d2], boxes[order[last]*d2:])
	for k := last - 1; k >= 0; k-- {
		cur := suf[k*d2 : (k+1)*d2]
		copy(cur, boxes[order[k]*d2:(order[k]+1)*d2])
		growBox(cur, suf[(k+1)*d2:(k+2)*d2])
	}
}

// A box is a rectangle flattened into one slice: the dim minima, then
// the dim maxima.

// growBox enlarges box dst in place to cover box src.
func growBox(dst, src []float64) {
	d := len(dst) / 2
	for i := 0; i < d; i++ {
		if src[i] < dst[i] {
			dst[i] = src[i]
		}
		if src[d+i] > dst[d+i] {
			dst[d+i] = src[d+i]
		}
	}
}

func boxMargin(b []float64) float64 {
	d := len(b) / 2
	m := 0.0
	for i := 0; i < d; i++ {
		m += b[d+i] - b[i]
	}
	return m
}

func boxArea(b []float64) float64 {
	d := len(b) / 2
	a := 1.0
	for i := 0; i < d; i++ {
		a *= b[d+i] - b[i]
	}
	return a
}

// boxOverlap returns the volume of the intersection of two boxes.
func boxOverlap(a, b []float64) float64 {
	d := len(a) / 2
	v := 1.0
	for i := 0; i < d; i++ {
		w := min(a[d+i], b[d+i]) - max(a[i], b[i])
		if w <= 0 {
			return 0
		}
		v *= w
	}
	return v
}

// tighten recomputes a node's bounding rectangle from its content, in
// place.
func (n *node) tighten() {
	r := n.rect
	if n.leaf {
		copy(r.Min, n.entries[0].Point)
		copy(r.Max, n.entries[0].Point)
		for _, e := range n.entries[1:] {
			r.grow(e.Point, e.Point)
		}
		return
	}
	copy(r.Min, n.children[0].rect.Min)
	copy(r.Max, n.children[0].rect.Max)
	for _, c := range n.children[1:] {
		r.grow(c.rect.Min, c.rect.Max)
	}
}

// checkInvariants verifies structural invariants; used by tests.
func (t *Tree) checkInvariants() error {
	if t.root == nil {
		return nil
	}
	count := 0
	var walk func(n *node, isRoot bool) error
	walk = func(n *node, isRoot bool) error {
		if n.leaf {
			if n.level != 0 {
				return fmt.Errorf("leaf at level %d", n.level)
			}
			count += len(n.entries)
			if !isRoot && (len(n.entries) < t.min || len(n.entries) > t.max) {
				return fmt.Errorf("leaf fill %d outside [%d,%d]", len(n.entries), t.min, t.max)
			}
			for _, e := range n.entries {
				if !n.rect.Contains(e.Point) {
					return fmt.Errorf("leaf rect does not contain entry %d", e.ID)
				}
			}
			return nil
		}
		if !isRoot && (len(n.children) < t.min || len(n.children) > t.max) {
			return fmt.Errorf("node fill %d outside [%d,%d]", len(n.children), t.min, t.max)
		}
		if isRoot && len(n.children) < 2 {
			return fmt.Errorf("root with %d children", len(n.children))
		}
		for _, c := range n.children {
			if c.level != n.level-1 {
				return fmt.Errorf("child level %d under level %d", c.level, n.level)
			}
			if !n.rect.ContainsRect(c.rect) {
				return fmt.Errorf("node rect does not contain child rect")
			}
			if err := walk(c, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("entry count %d, size %d", count, t.size)
	}
	return nil
}
