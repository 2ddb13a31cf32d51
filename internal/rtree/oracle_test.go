package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refChooseSubtree is the descent rule written the plain way: every
// child's enlarged rectangle built with Rect.Enlarged, every overlap
// summed in full, children compared in index order.
func refChooseSubtree(n *node, r Rect) *node {
	best := n.children[0]
	if n.level == 1 {
		bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
		for _, c := range n.children {
			enlarged := c.rect.Enlarged(r)
			var overlap float64
			for _, o := range n.children {
				if o != c {
					overlap += enlarged.OverlapArea(o.rect)
				}
			}
			enl := enlarged.Area() - c.rect.Area()
			area := c.rect.Area()
			if overlap < bestOverlap ||
				(overlap == bestOverlap && enl < bestEnl) ||
				(overlap == bestOverlap && enl == bestEnl && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = c, overlap, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for _, c := range n.children {
		enl := c.rect.Enlargement(r)
		area := c.rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = c, enl, area
		}
	}
	return best
}

// refChooseSplit is the R* split choice written the plain way: both
// groups of every distribution rebuilt box by box.
func refChooseSplit(rects []Rect, dim, minFill int) ([]int, int) {
	group := func(order []int) Rect {
		g := rects[order[0]].Copy()
		for _, idx := range order[1:] {
			g = g.Enlarged(rects[idx])
		}
		return g
	}
	total := len(rects)
	bestMargin := math.Inf(1)
	var bestOrder []int
	for axis := 0; axis < dim; axis++ {
		for _, byMax := range []bool{false, true} {
			order := make([]int, total)
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool {
				ra, rb := rects[order[a]], rects[order[b]]
				if byMax {
					return ra.Max[axis] < rb.Max[axis]
				}
				return ra.Min[axis] < rb.Min[axis]
			})
			margin := 0.0
			for cut := minFill; cut <= total-minFill; cut++ {
				margin += group(order[:cut]).Margin() + group(order[cut:]).Margin()
			}
			if margin < bestMargin {
				bestMargin, bestOrder = margin, order
			}
		}
	}
	bestCut, bestOverlap, bestArea := minFill, math.Inf(1), math.Inf(1)
	for cut := minFill; cut <= total-minFill; cut++ {
		l, r := group(bestOrder[:cut]), group(bestOrder[cut:])
		ov := l.OverlapArea(r)
		area := l.Area() + r.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestCut, bestOverlap, bestArea = cut, ov, area
		}
	}
	return bestOrder, bestCut
}

// randRect draws a rectangle in [-3, 3]^dim. With grid set the bounds
// are half steps and often degenerate, so equal areas, enlargements and
// overlaps are common; otherwise they are continuous.
func randRect(rng *rand.Rand, dim int, grid bool) Rect {
	lo, hi := make([]float64, dim), make([]float64, dim)
	for d := range lo {
		a, b := rng.Float64()*6-3, rng.Float64()*6-3
		if grid {
			a, b = float64(rng.Intn(13)-6)/2, float64(rng.Intn(13)-6)/2
			if rng.Intn(4) == 0 {
				b = a
			}
		}
		lo[d], hi[d] = math.Min(a, b), math.Max(a, b)
	}
	return Rect{Min: lo, Max: hi}
}

// TestChooseSubtreeMatchesReference checks the pruned, allocation-free
// descent against refChooseSubtree on random nodes at level 1 (the
// overlap rule) and level 2 (the enlargement rule).
func TestChooseSubtreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		dim, maxEntries := 1+rng.Intn(4), 4+rng.Intn(29)
		tr, err := New(dim, maxEntries)
		if err != nil {
			t.Fatal(err)
		}
		grid := trial%2 == 0
		n := &node{level: 1 + rng.Intn(2)}
		for i, count := 0, 2+rng.Intn(maxEntries); i < count; i++ {
			n.children = append(n.children, &node{leaf: n.level == 1, level: n.level - 1, rect: randRect(rng, dim, grid)})
		}
		p := randRect(rng, dim, grid).Min
		if got, want := tr.chooseSubtree(n, p), refChooseSubtree(n, PointRect(p)); got != want {
			t.Fatalf("trial %d (level %d, %d children, dim %d): chose a different child", trial, n.level, len(n.children), dim)
		}
	}
}

// TestChooseSplitMatchesReference checks the prefix/suffix split choice
// against refChooseSplit on random overflowing sets of boxes.
func TestChooseSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		dim, maxEntries := 1+rng.Intn(4), 4+rng.Intn(29)
		tr, err := New(dim, maxEntries)
		if err != nil {
			t.Fatal(err)
		}
		rects := make([]Rect, maxEntries+1)
		for i := range rects {
			rects[i] = randRect(rng, dim, trial%2 == 0)
			copy(tr.s.boxes[i*2*dim:], rects[i].Min)
			copy(tr.s.boxes[i*2*dim+dim:], rects[i].Max)
		}
		gotOrder, gotCut := tr.chooseSplit(len(rects))
		wantOrder, wantCut := refChooseSplit(rects, dim, tr.min)
		if gotCut != wantCut || !sameInts(gotOrder, wantOrder) {
			t.Fatalf("trial %d (dim %d, %d boxes): split %v/%d, want %v/%d", trial, dim, len(rects), gotOrder, gotCut, wantOrder, wantCut)
		}
	}
}
