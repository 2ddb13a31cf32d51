package rtree

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randPoints(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.Float64()*200 - 100
		}
		out[i] = p
	}
	return out
}

func buildTree(t *testing.T, pts [][]float64, maxEntries int) *Tree {
	t.Helper()
	tr, err := New(len(pts[0]), maxEntries)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(i, p); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func bruteRange(pts [][]float64, q Rect, tf *Affine) []int {
	var out []int
	for i, p := range pts {
		x := p
		if tf != nil {
			x = tf.Apply(p)
		}
		if q.Contains(x) {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInvariantsAfterInserts(t *testing.T) {
	for _, n := range []int{0, 1, 5, 33, 200, 1500} {
		pts := randPoints(int64(n)+1, n, 4)
		tr, err := New(4, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := tr.Insert(i, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	pts := randPoints(7, 2000, 3)
	tr := buildTree(t, pts, 16)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		lo := make([]float64, 3)
		hi := make([]float64, 3)
		for d := range lo {
			a := rng.Float64()*200 - 100
			b := rng.Float64()*200 - 100
			lo[d], hi[d] = math.Min(a, b), math.Max(a, b)
		}
		q, err := NewRect(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tr.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteRange(pts, q, nil)
		if !sameInts(got, want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
	}
}

func TestTransformedSearchMatchesBruteForce(t *testing.T) {
	pts := randPoints(9, 1500, 2)
	tr := buildTree(t, pts, 12)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		tf := &Affine{
			A: []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}, // negatives allowed
			B: []float64{rng.Float64()*20 - 10, rng.Float64()*20 - 10},
		}
		lo := []float64{rng.Float64()*300 - 150, rng.Float64()*300 - 150}
		hi := []float64{lo[0] + rng.Float64()*100, lo[1] + rng.Float64()*100}
		q, err := NewRect(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tr.SearchTransformed(q, tf)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteRange(pts, q, tf)
		if !sameInts(got, want) {
			t.Fatalf("trial %d: transformed search wrong: got %d want %d", trial, len(got), len(want))
		}
	}
}

func TestIdentityTransformSameAccesses(t *testing.T) {
	// The companion's claim behind Figures 8/9: identity-transformed
	// search touches exactly the same nodes as the plain search.
	pts := randPoints(11, 3000, 4)
	tr := buildTree(t, pts, 16)
	q, _ := NewRect([]float64{-20, -20, -20, -20}, []float64{20, 20, 20, 20})
	plain, st1, err := tr.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	tfed, st2, err := tr.SearchTransformed(q, Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(plain, tfed) {
		t.Fatal("identity transform changed the answers")
	}
	if st1.NodeAccesses != st2.NodeAccesses {
		t.Errorf("node accesses differ: %d vs %d", st1.NodeAccesses, st2.NodeAccesses)
	}
}

func TestNearestKMatchesBruteForce(t *testing.T) {
	pts := randPoints(13, 1200, 3)
	tr := buildTree(t, pts, 16)
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		q := []float64{rng.Float64()*200 - 100, rng.Float64()*200 - 100, rng.Float64()*200 - 100}
		for _, k := range []int{1, 5, 17} {
			got, _, err := tr.NearestK(q, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			type nd struct {
				id int
				d  float64
			}
			all := make([]nd, len(pts))
			for i, p := range pts {
				all[i] = nd{i, math.Sqrt(sqDist(p, q))}
			}
			sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
			if len(got) != k {
				t.Fatalf("k=%d: got %d results", k, len(got))
			}
			for i := range got {
				if math.Abs(got[i].Dist-all[i].d) > 1e-9 {
					t.Fatalf("k=%d result %d: dist %g, want %g", k, i, got[i].Dist, all[i].d)
				}
			}
		}
	}
}

func TestNearestKTransformed(t *testing.T) {
	pts := randPoints(15, 800, 2)
	tr := buildTree(t, pts, 8)
	tf := &Affine{A: []float64{-1, 2}, B: []float64{5, -3}}
	q := []float64{1, 1}
	got, _, err := tr.NearestK(q, 7, tf)
	if err != nil {
		t.Fatal(err)
	}
	type nd struct {
		id int
		d  float64
	}
	all := make([]nd, len(pts))
	for i, p := range pts {
		all[i] = nd{i, math.Sqrt(sqDist(tf.Apply(p), q))}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	for i := range got {
		if math.Abs(got[i].Dist-all[i].d) > 1e-9 {
			t.Fatalf("result %d: dist %g, want %g", i, got[i].Dist, all[i].d)
		}
	}
}

func TestSearchEmptyTree(t *testing.T) {
	tr, _ := New(2, 8)
	q, _ := NewRect([]float64{0, 0}, []float64{1, 1})
	got, _, err := tr.Search(q)
	if err != nil || got != nil {
		t.Errorf("empty search = %v, %v", got, err)
	}
	nn, _, err := tr.NearestK([]float64{0, 0}, 3, nil)
	if err != nil || nn != nil {
		t.Errorf("empty NN = %v, %v", nn, err)
	}
}

func TestDimensionErrors(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Error("New(0) succeeded")
	}
	if _, err := New(2, 3); err == nil {
		t.Error("New with maxEntries 3 succeeded")
	}
	tr, _ := New(2, 8)
	if err := tr.Insert(0, []float64{1}); err == nil {
		t.Error("Insert with wrong dim succeeded")
	}
	q, _ := NewRect([]float64{0}, []float64{1})
	if _, _, err := tr.Search(q); err == nil {
		t.Error("Search with wrong dim succeeded")
	}
	if _, _, err := tr.NearestK([]float64{0}, 1, nil); err == nil {
		t.Error("NearestK with wrong dim succeeded")
	}
	tr.Insert(0, []float64{0, 0})
	q2, _ := NewRect([]float64{0, 0}, []float64{1, 1})
	bad := &Affine{A: []float64{1}, B: []float64{0}}
	if _, _, err := tr.SearchTransformed(q2, bad); err == nil {
		t.Error("bad affine accepted")
	}
}

func TestNewRectValidation(t *testing.T) {
	if _, err := NewRect([]float64{1}, []float64{0}); err == nil {
		t.Error("inverted rect accepted")
	}
	if _, err := NewRect([]float64{0, 0}, []float64{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := NewRect([]float64{0, math.NaN()}, []float64{1, 1}); err == nil {
		t.Error("NaN bound accepted")
	}
}

func TestRectOps(t *testing.T) {
	r, _ := NewRect([]float64{0, 0}, []float64{2, 4})
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %g", got)
	}
	if got := r.Margin(); got != 6 {
		t.Errorf("Margin = %g", got)
	}
	o, _ := NewRect([]float64{1, 1}, []float64{3, 3})
	if got := r.OverlapArea(o); got != 2 {
		t.Errorf("OverlapArea = %g", got)
	}
	if !r.Overlaps(o) {
		t.Error("Overlaps = false")
	}
	e := r.Enlarged(o)
	if e.Max[0] != 3 || e.Max[1] != 4 {
		t.Errorf("Enlarged = %+v", e)
	}
	if got := r.Enlargement(o); got != 12-8 {
		t.Errorf("Enlargement = %g", got)
	}
	c := r.Center()
	if c[0] != 1 || c[1] != 2 {
		t.Errorf("Center = %v", c)
	}
	if !r.Contains([]float64{1, 1}) || r.Contains([]float64{3, 3}) {
		t.Error("Contains wrong")
	}
	far, _ := NewRect([]float64{5, 5}, []float64{6, 6})
	if r.Overlaps(far) {
		t.Error("disjoint rects overlap")
	}
	if got := far.MinDist([]float64{5.5, 5.5}); got != 0 {
		t.Errorf("MinDist inside = %g", got)
	}
	if got := far.MinDist([]float64{4, 5.5}); got != 1 {
		t.Errorf("MinDist = %g, want 1 (squared)", got)
	}
}

func TestAffineNegativeStretchRect(t *testing.T) {
	tf := &Affine{A: []float64{-2}, B: []float64{1}}
	r, _ := NewRect([]float64{0}, []float64{3})
	img := tf.ApplyRect(r)
	// Image of [0,3] under -2x+1 is [-5, 1].
	if img.Min[0] != -5 || img.Max[0] != 1 {
		t.Errorf("image = %+v", img)
	}
	// Interior point maps to interior (safety property).
	p := tf.Apply([]float64{1})
	if !img.Contains(p) {
		t.Error("interior point left the image rectangle")
	}
}

func TestHeight(t *testing.T) {
	tr, _ := New(2, 4)
	if tr.Height() != 0 {
		t.Errorf("empty height = %d", tr.Height())
	}
	pts := randPoints(20, 300, 2)
	for i, p := range pts {
		tr.Insert(i, p)
	}
	if tr.Height() < 3 {
		t.Errorf("300 points with fanout 4: height = %d, want >= 3", tr.Height())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr, _ := New(2, 4)
	for i := 0; i < 50; i++ {
		tr.Insert(i, []float64{1, 1})
	}
	q, _ := NewRect([]float64{1, 1}, []float64{1, 1})
	got, _, err := tr.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Errorf("duplicates: %d found, want 50", len(got))
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNonFiniteRejected: a NaN coordinate compares false against every
// bound, so Rect.Contains would place it inside every query; Insert
// rejects NaN and infinities with ErrNonFinite and leaves the tree as
// it was.
func TestNonFiniteRejected(t *testing.T) {
	tr, _ := New(2, 4)
	if err := tr.Insert(0, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]float64{
		{math.NaN(), 0}, {0, math.Inf(1)}, {math.Inf(-1), math.NaN()},
	} {
		if err := tr.Insert(1, p); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Insert(%v): err = %v, want ErrNonFinite", p, err)
		}
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after rejected inserts, want 1", tr.Len())
	}
	q, _ := NewRect([]float64{5, 5}, []float64{6, 6})
	if got, _, _ := tr.Search(q); len(got) != 0 {
		t.Errorf("disjoint query found %v", got)
	}
}
