package tsdb

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dft"
	"repro/internal/stock"
)

func TestNormalForm(t *testing.T) {
	norm, mean, std, err := NormalForm([]float64{2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if mean != 5 {
		t.Errorf("mean = %g", mean)
	}
	if math.Abs(std-math.Sqrt(5)) > 1e-12 {
		t.Errorf("std = %g, want √5", std)
	}
	var sum, sumsq float64
	for _, v := range norm {
		sum += v
		sumsq += v * v
	}
	if math.Abs(sum) > 1e-12 {
		t.Errorf("normal form mean = %g", sum/4)
	}
	if math.Abs(sumsq/4-1) > 1e-12 {
		t.Errorf("normal form variance = %g", sumsq/4)
	}
}

func TestNormalFormErrors(t *testing.T) {
	if _, _, _, err := NormalForm(nil); err == nil {
		t.Error("empty series accepted")
	}
	if _, _, _, err := NormalForm([]float64{3, 3, 3}); err == nil {
		t.Error("constant series accepted")
	}
}

func TestNormalFormFirstCoefficientZero(t *testing.T) {
	// The paper drops the first DFT coefficient because the normal
	// form's mean is zero.
	s := stock.Walk(rand.New(rand.NewSource(1)), 64)
	norm, _, _, err := NormalForm(s)
	if err != nil {
		t.Fatal(err)
	}
	X := dft.TransformReal(norm)
	if cmplx.Abs(X[0]) > 1e-9 {
		t.Errorf("X[0] = %v, want 0", X[0])
	}
}

func TestMovingAverageExample(t *testing.T) {
	// Example 1.1: the 3-day moving averages of s1 and s2 are close
	// (paper reports D = 0.47 for the non-circular version; the
	// circular variant matches to within the wrap effect).
	s1, s2 := stock.ExampleS1(), stock.ExampleS2()
	m1, err := MovingAverage(s1, 3)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MovingAverage(s2, 3)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := Euclid(s1, s2)
	smooth, _ := Euclid(m1, m2)
	if smooth >= raw/3 {
		t.Errorf("3-day MA distance %g not much smaller than raw %g", smooth, raw)
	}
	if math.Abs(raw-11.92) > 0.05 {
		t.Errorf("raw distance %g, paper says 11.92", raw)
	}
}

func TestMovingAverageWindowMean(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6}
	ma, err := MovingAverage(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// ma[i] = mean(s[i-1], s[i]) circularly; ma[0] = (s[5]+s[0])/2.
	want := []float64{3.5, 1.5, 2.5, 3.5, 4.5, 5.5}
	for i := range want {
		if math.Abs(ma[i]-want[i]) > 1e-12 {
			t.Errorf("ma[%d] = %g, want %g", i, ma[i], want[i])
		}
	}
}

func TestMovingAverageErrors(t *testing.T) {
	if _, err := MovingAverage([]float64{1, 2}, 0); err == nil {
		t.Error("window 0 accepted")
	}
	if _, err := MovingAverage([]float64{1, 2}, 3); err == nil {
		t.Error("window > n accepted")
	}
}

// TestMovingAvgTransformMatchesTimeDomain is the core frequency-domain
// identity: applying the MovingAvg transform to the DFT coefficients
// equals computing the circular moving average in the time domain.
func TestMovingAvgTransformMatchesTimeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{8, 16, 64, 128} {
		s := stock.Walk(rng, n)
		for _, l := range []int{1, 3, 5} {
			tr, err := MovingAvg(n, l)
			if err != nil {
				t.Fatal(err)
			}
			viaFreq, err := tr.ApplySeries(s)
			if err != nil {
				t.Fatal(err)
			}
			viaTime, err := MovingAverage(s, l)
			if err != nil {
				t.Fatal(err)
			}
			for i := range viaTime {
				if math.Abs(viaFreq[i]-viaTime[i]) > 1e-8 {
					t.Fatalf("n=%d l=%d: freq %g vs time %g at %d", n, l, viaFreq[i], viaTime[i], i)
				}
			}
		}
	}
}

func TestReverseTransform(t *testing.T) {
	s := stock.Walk(rand.New(rand.NewSource(3)), 32)
	tr := ReverseT(32)
	got, err := tr.ApplySeries(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if math.Abs(got[i]+s[i]) > 1e-9 {
			t.Fatalf("reverse[%d] = %g, want %g", i, got[i], -s[i])
		}
	}
}

// TestWarpCoefficients verifies Appendix A: a_f · S_f equals the f-th
// DFT coefficient of the m-fold warped series (with the normalisation
// bridge: unitary DFT of the warp = a_f/√m · unitary DFT of the
// original).
func TestWarpCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 16} {
		for _, m := range []int{2, 3} {
			s := stock.Walk(rng, n)
			k := n / 2
			a, err := WarpCoefficients(n, m, k)
			if err != nil {
				t.Fatal(err)
			}
			S := dft.TransformReal(s)
			W := dft.TransformReal(WarpSeries(s, m))
			scale := complex(math.Sqrt(float64(m)), 0)
			for f := 0; f < k; f++ {
				want := a[f] * S[f] / scale
				if cmplx.Abs(W[f]-want) > 1e-8 {
					t.Fatalf("n=%d m=%d f=%d: warped %v, predicted %v", n, m, f, W[f], want)
				}
			}
		}
	}
}

func TestWarpSeries(t *testing.T) {
	got := WarpSeries([]float64{1, 2}, 3)
	want := []float64{1, 1, 1, 2, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("WarpSeries = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WarpSeries = %v, want %v", got, want)
		}
	}
}

func TestWarpErrors(t *testing.T) {
	if _, err := WarpCoefficients(8, 0, 2); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := WarpCoefficients(8, 2, 9); err == nil {
		t.Error("k>n accepted")
	}
}

func TestIdentityTransform(t *testing.T) {
	s := stock.Walk(rand.New(rand.NewSource(5)), 16)
	tr := Identity(16)
	got, err := tr.ApplySeries(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if math.Abs(got[i]-s[i]) > 1e-9 {
			t.Fatalf("identity changed the series at %d", i)
		}
	}
}

func TestTransformApplyLengthMismatch(t *testing.T) {
	tr := Identity(8)
	if _, err := tr.Apply(make([]complex128, 4)); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestSrectComplexCounterexample reproduces the paper's demonstration
// that complex stretches are NOT safe in the rectangular space: with
// p = -5-5j, q = 5+5j, r = -2+2j inside rect(p,q), multiplying by
// s = 2-3j maps r outside the rectangle spanned by the images of p, q.
func TestSrectComplexCounterexample(t *testing.T) {
	p := complex(-5, -5)
	q := complex(5, 5)
	r := complex(-2, 2)
	s := complex(2, -3)
	inside := func(x, lo, hi complex128) bool {
		return real(x) >= math.Min(real(lo), real(hi)) && real(x) <= math.Max(real(lo), real(hi)) &&
			imag(x) >= math.Min(imag(lo), imag(hi)) && imag(x) <= math.Max(imag(lo), imag(hi))
	}
	if !inside(r, p, q) {
		t.Fatal("precondition: r inside rect(p,q)")
	}
	if inside(r*s, p*s, q*s) {
		t.Fatal("complex stretch kept r inside — the counterexample should fail")
	}
}

// TestSpolSafety verifies Theorem 3 numerically: multiplier transforms
// acting on (magnitude, phase) are per-dimension affine, so rectangle
// containment is preserved in Spol.
func TestSpolSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		// A random polar rectangle and a point inside it.
		mLo := rng.Float64() * 5
		mHi := mLo + rng.Float64()*5
		pLo := (rng.Float64() - 0.5) * 2
		pHi := pLo + rng.Float64()*1.5
		m := mLo + rng.Float64()*(mHi-mLo)
		ph := pLo + rng.Float64()*(pHi-pLo)
		// Transformed bounds.
		abs, ang := cmplx.Abs(a), cmplx.Phase(a)
		if abs == 0 {
			continue
		}
		if m*abs < mLo*abs-1e-12 || m*abs > mHi*abs+1e-12 {
			t.Fatal("magnitude left its interval")
		}
		if ph+ang < pLo+ang-1e-12 || ph+ang > pHi+ang+1e-12 {
			t.Fatal("phase left its interval")
		}
	}
}

func buildDB(t testing.TB, seed int64, count, length, k int) *DB {
	t.Helper()
	db, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stock.Walks(seed, count, length) {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(); err != nil {
		t.Fatal(err)
	}
	return db
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
}

// TestIndexMatchesScan is Lemma 1 in executable form: the k-index path
// returns exactly the scan's answer set, for identity and non-trivial
// transformations alike.
func TestIndexMatchesScan(t *testing.T) {
	db := buildDB(t, 7, 300, 128, 2)
	mavg, err := MovingAvg(128, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	transforms := []*Transform{nil, Identity(128), mavg, ReverseT(128)}
	for trial := 0; trial < 12; trial++ {
		q := stock.Walk(rng, 128)
		for _, tr := range transforms {
			for _, eps := range []float64{0.5, 2, 8} {
				idx, _, err := db.RangeIndex(q, tr, eps)
				if err != nil {
					t.Fatal(err)
				}
				scan, _, err := db.RangeScan(q, tr, eps)
				if err != nil {
					t.Fatal(err)
				}
				sortMatches(idx)
				sortMatches(scan)
				if len(idx) != len(scan) {
					name := "nil"
					if tr != nil {
						name = tr.Name
					}
					t.Fatalf("T=%s eps=%g: index %d answers, scan %d", name, eps, len(idx), len(scan))
				}
				for i := range idx {
					if idx[i].ID != scan[i].ID || math.Abs(idx[i].Dist-scan[i].Dist) > 1e-9 {
						t.Fatalf("answer %d differs: %+v vs %+v", i, idx[i], scan[i])
					}
				}
			}
		}
	}
}

func TestIndexPrunes(t *testing.T) {
	db := buildDB(t, 9, 2000, 128, 2)
	q := stock.Walk(rand.New(rand.NewSource(10)), 128)
	_, st, err := db.RangeIndex(q, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates >= db.Len()/2 {
		t.Errorf("index verified %d of %d — no pruning", st.Candidates, db.Len())
	}
}

func TestSelfJoinMethodsAgree(t *testing.T) {
	db := buildDB(t, 11, 120, 64, 2)
	mavg, err := MovingAvg(64, 10)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 4.0
	a, _, err := db.SelfJoin(JoinScanFull, mavg, eps)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := db.SelfJoin(JoinScanAbort, mavg, eps)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := db.SelfJoin(JoinIndexT, mavg, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("scan-full %d pairs, scan-abort %d", len(a), len(b))
	}
	// Index method reports ordered pairs: exactly twice the scan count.
	if len(d) != 2*len(a) {
		t.Fatalf("index join %d ordered pairs, want %d", len(d), 2*len(a))
	}
	// Every scan pair appears in the index result.
	seen := map[[2]int]bool{}
	for _, p := range d {
		seen[[2]int{p.I, p.J}] = true
	}
	for _, p := range a {
		if !seen[[2]int{p.I, p.J}] || !seen[[2]int{p.J, p.I}] {
			t.Fatalf("pair %v missing from index join", p)
		}
	}
}

func TestSelfJoinPlainIndexDiffers(t *testing.T) {
	// Method c joins without the transformation; with a smoothing
	// transform the transformed join (d) finds at least as many pairs.
	db := buildDB(t, 13, 150, 64, 2)
	mavg, err := MovingAvg(64, 10)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 4.0
	c, _, err := db.SelfJoin(JoinIndex, nil, eps)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := db.SelfJoin(JoinIndexT, mavg, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) < len(c) {
		t.Errorf("smoothing join found %d pairs < plain %d", len(d), len(c))
	}
}

func TestDBErrors(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("k=0 accepted")
	}
	db, _ := New(2)
	if _, err := db.Add([]float64{1, 2, 3}); err == nil {
		t.Error("too-short series accepted")
	}
	if _, err := db.Add(stock.Walk(rand.New(rand.NewSource(1)), 32)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Add(stock.Walk(rand.New(rand.NewSource(2)), 64)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := db.Series(99); err == nil {
		t.Error("Series(99) on 1-series DB")
	}
	if _, err := db.Coeffs(-1); err == nil {
		t.Error("Coeffs(-1)")
	}
	if _, _, err := db.RangeScan([]float64{1, 2}, nil, 1); err == nil {
		t.Error("query length mismatch accepted")
	}
	if _, _, err := db.SelfJoin(JoinMethod(42), nil, 1); err == nil {
		t.Error("unknown join method accepted")
	}
}

// TestNonFiniteRejected: a NaN or infinite value anywhere in a stored
// or query series is an ErrNonFinite error, never a feature point (a
// NaN feature sits inside every index rectangle and passes every
// early-abort bound, so such a series used to answer every query at
// distance NaN).
func TestNonFiniteRejected(t *testing.T) {
	good := stock.Walk(rand.New(rand.NewSource(1)), 32)
	poison := func(v float64, at int) []float64 {
		s := append([]float64(nil), good...)
		s[at] = v
		return s
	}
	bad := map[string][]float64{
		"nan":      poison(math.NaN(), 5),
		"+inf":     poison(math.Inf(1), 0),
		"-inf":     poison(math.Inf(-1), 31),
		"overflow": poison(math.MaxFloat64, 3), // the variance overflows
	}
	db, _ := New(2)
	for name, s := range bad {
		if _, err := db.Add(s); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Add(%s): err = %v, want ErrNonFinite", name, err)
		}
		if _, _, _, _, err := FeaturePoint(s, 2); !errors.Is(err, ErrNonFinite) {
			t.Errorf("FeaturePoint(%s): err = %v, want ErrNonFinite", name, err)
		}
	}
	if db.Len() != 0 || db.SeriesLen() != 0 {
		t.Fatalf("rejected series left Len %d, SeriesLen %d", db.Len(), db.SeriesLen())
	}
	for i := int64(0); i < 20; i++ {
		if _, err := db.Add(stock.Walk(rand.New(rand.NewSource(i)), 32)); err != nil {
			t.Fatal(err)
		}
	}
	for name, q := range bad {
		if _, _, err := db.RangeIndex(q, nil, 1); !errors.Is(err, ErrNonFinite) {
			t.Errorf("RangeIndex(%s): err = %v, want ErrNonFinite", name, err)
		}
		if _, _, err := db.RangeScan(q, nil, 1); !errors.Is(err, ErrNonFinite) {
			t.Errorf("RangeScan(%s): err = %v, want ErrNonFinite", name, err)
		}
	}
}

// TestBadRadiusRejected: a NaN or negative radius is an error on every
// query path (a negative one used to answer like its absolute value in
// a scan and fail in the index).
func TestBadRadiusRejected(t *testing.T) {
	db := buildDB(t, 3, 30, 32, 2)
	q, _ := db.Series(0)
	for _, eps := range []float64{math.NaN(), -1} {
		if _, _, err := db.RangeIndex(q, nil, eps); err == nil {
			t.Errorf("RangeIndex eps=%g accepted", eps)
		}
		if _, _, err := db.RangeScan(q, nil, eps); err == nil {
			t.Errorf("RangeScan eps=%g accepted", eps)
		}
		if _, _, err := db.SelfJoin(JoinIndexT, nil, eps); err == nil {
			t.Errorf("SelfJoin eps=%g accepted", eps)
		}
	}
}

func TestJoinMethodString(t *testing.T) {
	for m, want := range map[JoinMethod]string{
		JoinScanFull: "a", JoinScanAbort: "b", JoinIndex: "c", JoinIndexT: "d",
	} {
		if got := m.String(); got[0] != want[0] {
			t.Errorf("%d.String() = %q", m, got)
		}
	}
}

func TestExample21Pipeline(t *testing.T) {
	// Example 2.1's pipeline on synthetic series: each step (shift,
	// scale, smooth) reduces the Euclidean distance between two related
	// series.
	rng := rand.New(rand.NewSource(14))
	base := stock.Walk(rng, 128)
	// A scaled, shifted, noisier sibling.
	other := make([]float64, 128)
	for i, v := range base {
		other[i] = 3*v + 40 + rng.Float64()*2 - 1
	}
	raw, _ := Euclid(base, other)
	n1, _, _, err := NormalForm(base)
	if err != nil {
		t.Fatal(err)
	}
	n2, _, _, err := NormalForm(other)
	if err != nil {
		t.Fatal(err)
	}
	normD, _ := Euclid(n1, n2)
	if normD >= raw {
		t.Errorf("normal form did not reduce distance: %g -> %g", raw, normD)
	}
	m1, _ := MovingAverage(n1, 20)
	m2, _ := MovingAverage(n2, 20)
	smoothD, _ := Euclid(m1, m2)
	if smoothD >= normD {
		t.Errorf("20-day MA did not reduce distance: %g -> %g", normD, smoothD)
	}
}
