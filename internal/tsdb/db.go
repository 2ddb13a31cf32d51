package tsdb

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/rtree"
)

// DB is an in-memory time-series database with a k-index: an R*-tree
// over the 2+2k-dimensional polar feature space. All series must share
// one length. Build the index once after loading; queries are then
// read-only and safe to run concurrently.
type DB struct {
	k      int
	n      int // series length, fixed by the first Add
	raw    [][]float64
	coeffs [][]complex128 // unitary DFT of each normal form, full length
	feats  [][]float64
	means  []float64
	stds   []float64
	tree   *rtree.Tree
}

// New returns an empty database indexing the first k non-DC
// coefficients (the companion's experiments use k = 2: the second and
// third DFT terms).
func New(k int) (*DB, error) {
	if k < 1 {
		return nil, fmt.Errorf("tsdb: k must be >= 1, got %d", k)
	}
	return &DB{k: k}, nil
}

// K returns the number of indexed coefficients.
func (db *DB) K() int { return db.k }

// Len returns the number of series.
func (db *DB) Len() int { return len(db.raw) }

// SeriesLen returns the common series length (0 before the first Add).
func (db *DB) SeriesLen() int { return db.n }

// Series returns the raw series with the given id.
func (db *DB) Series(id int) ([]float64, error) {
	if id < 0 || id >= len(db.raw) {
		return nil, fmt.Errorf("tsdb: no series %d", id)
	}
	return db.raw[id], nil
}

// Coeffs returns the stored (normal-form) coefficient vector of a
// series. Callers must not modify it.
func (db *DB) Coeffs(id int) ([]complex128, error) {
	if id < 0 || id >= len(db.coeffs) {
		return nil, fmt.Errorf("tsdb: no series %d", id)
	}
	return db.coeffs[id], nil
}

// Add inserts a series and returns its id. Series must be finite,
// non-constant and of equal length; the first series accepted fixes the
// length.
func (db *DB) Add(s []float64) (int, error) {
	if db.n == 0 && 2*db.k >= len(s) {
		return 0, fmt.Errorf("tsdb: series length %d too short for k=%d", len(s), db.k)
	}
	if db.n != 0 && len(s) != db.n {
		return 0, fmt.Errorf("tsdb: series length %d, want %d", len(s), db.n)
	}
	feat, X, mean, std, err := FeaturePoint(s, db.k)
	if err != nil {
		return 0, err
	}
	db.n = len(s)
	cp := make([]float64, len(s))
	copy(cp, s)
	id := len(db.raw)
	db.raw = append(db.raw, cp)
	db.coeffs = append(db.coeffs, X)
	db.feats = append(db.feats, feat)
	db.means = append(db.means, mean)
	db.stds = append(db.stds, std)
	db.tree = nil
	return id, nil
}

// MeanStd returns the stored mean and standard deviation of a series
// (the companion's first two index dimensions, kept here as tuple
// attributes; see FeaturePoint).
func (db *DB) MeanStd(id int) (mean, std float64, err error) {
	if id < 0 || id >= len(db.means) {
		return 0, 0, fmt.Errorf("tsdb: no series %d", id)
	}
	return db.means[id], db.stds[id], nil
}

// Build constructs the R*-tree over the feature points. Queries build
// it lazily if needed; bulk callers invoke it once to keep timings
// honest.
func (db *DB) Build() error {
	tree, err := rtree.New(2*db.k, 32)
	if err != nil {
		return err
	}
	for id, f := range db.feats {
		if err := tree.Insert(id, f); err != nil {
			return err
		}
	}
	db.tree = tree
	return nil
}

func (db *DB) ensureTree() error {
	if db.tree == nil {
		return db.Build()
	}
	return nil
}

// Match is one range-query answer.
type Match struct {
	ID   int
	Dist float64
}

// Stats reports the work a query did.
type Stats struct {
	NodeAccesses int
	Candidates   int // entries that reached exact verification
}

// checkRadius rejects a NaN or negative query radius. exactDist bounds
// the squared distance by eps², so a negative radius would act as its
// absolute value in a scan while the index search rectangle is empty.
func checkRadius(eps float64) error {
	if !(eps >= 0) {
		return fmt.Errorf("tsdb: radius %g is not a non-negative number", eps)
	}
	return nil
}

// queryFeatures prepares the query's coefficient vector and feature
// point from a raw series.
func (db *DB) queryFeatures(q []float64) ([]float64, []complex128, error) {
	if len(q) != db.n {
		return nil, nil, fmt.Errorf("tsdb: query length %d, want %d", len(q), db.n)
	}
	return db.newFeatures(q)
}

func (db *DB) newFeatures(q []float64) ([]float64, []complex128, error) {
	feat, X, _, _, err := FeaturePoint(q, db.k)
	if err != nil {
		return nil, nil, err
	}
	return feat, X, nil
}

// exactDist computes D(T(X_id), Q) over the full coefficient vectors,
// aborting early (ok=false) once the partial sum exceeds eps². With
// T == nil the identity is used. This is both the verification step of
// the index path and the inner loop of the sequential-scan baseline.
func (db *DB) exactDist(id int, t *Transform, q []complex128, eps float64) (float64, bool) {
	x := db.coeffs[id]
	limit := eps * eps
	var sum float64
	for f := range x {
		v := x[f]
		if t != nil {
			v *= t.A[f]
		}
		d := v - q[f]
		sum += real(d)*real(d) + imag(d)*imag(d)
		if sum > limit {
			return 0, false
		}
	}
	return math.Sqrt(sum), true
}

// fullDist is exactDist without the early abort (the companion's
// method-a baseline).
func (db *DB) fullDist(id int, t *Transform, q []complex128) float64 {
	x := db.coeffs[id]
	var sum float64
	for f := range x {
		v := x[f]
		if t != nil {
			v *= t.A[f]
		}
		d := v - q[f]
		sum += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(sum)
}

// RangeIndex answers the framework's range query with the k-index:
// all series x with D(T(X), Q) <= eps, where X is the normal-form
// coefficient vector of x and Q that of the query series. T == nil
// means identity. The index is traversed with T applied to node
// rectangles on the fly (Algorithm 2); candidates are verified exactly,
// so the answer set equals the sequential scan's (Lemma 1: no false
// dismissals).
func (db *DB) RangeIndex(q []float64, t *Transform, eps float64) ([]Match, Stats, error) {
	var st Stats
	if err := checkRadius(eps); err != nil {
		return nil, st, err
	}
	if err := db.ensureTree(); err != nil {
		return nil, st, err
	}
	qFeat, qX, err := db.queryFeatures(q)
	if err != nil {
		return nil, st, err
	}
	rect, err := SearchRect(qFeat, eps)
	if err != nil {
		return nil, st, err
	}
	var tf *rtree.Affine
	if t != nil {
		tf, err = t.PolarAffine(db.k)
		if err != nil {
			return nil, st, err
		}
	}
	ids, sst, err := db.tree.SearchTransformed(rect, tf)
	if err != nil {
		return nil, st, err
	}
	st.NodeAccesses = sst.NodeAccesses
	var out []Match
	for _, id := range ids {
		st.Candidates++
		if d, ok := db.exactDist(id, t, qX, eps); ok {
			out = append(out, Match{ID: id, Dist: d})
		}
	}
	return out, st, nil
}

// RangeScan is the sequential-scan baseline over the frequency-domain
// relation, with the companion's early-abort optimisation (stop the
// distance computation as soon as it exceeds eps).
func (db *DB) RangeScan(q []float64, t *Transform, eps float64) ([]Match, Stats, error) {
	var st Stats
	if err := checkRadius(eps); err != nil {
		return nil, st, err
	}
	_, qX, err := db.queryFeatures(q)
	if err != nil {
		return nil, st, err
	}
	var out []Match
	for id := range db.coeffs {
		st.Candidates++
		if d, ok := db.exactDist(id, t, qX, eps); ok {
			out = append(out, Match{ID: id, Dist: d})
		}
	}
	return out, st, nil
}

// JoinMethod selects one of the four self-join strategies of the
// companion's Table 1.
type JoinMethod int

// Join methods, in the order of Table 1.
const (
	JoinScanFull  JoinMethod = iota // a: scan, full distance computation
	JoinScanAbort                   // b: scan, early-abort distance
	JoinIndex                       // c: index probes, no transformation
	JoinIndexT                      // d: index probes with transformation
)

// String names the method as in Table 1.
func (m JoinMethod) String() string {
	switch m {
	case JoinScanFull:
		return "a (scan, full distance)"
	case JoinScanAbort:
		return "b (scan, early abort)"
	case JoinIndex:
		return "c (index, no transform)"
	case JoinIndexT:
		return "d (index, transformed)"
	default:
		return fmt.Sprintf("JoinMethod(%d)", int(m))
	}
}

// Pair is one join answer. Scan methods report each unordered pair
// once (i < j); index methods report ordered pairs, i.e. every
// unordered pair twice — matching how Table 1 counts answers.
type Pair struct {
	I, J int
	Dist float64
}

// SelfJoin runs the spatial self-join "all pairs with
// D(T(X), T(Y)) <= eps" with the chosen method. For JoinIndex the
// transformation is skipped entirely, as in the companion's method c
// (which is why its answer set differs).
func (db *DB) SelfJoin(method JoinMethod, t *Transform, eps float64) ([]Pair, Stats, error) {
	var st Stats
	if err := checkRadius(eps); err != nil {
		return nil, st, err
	}
	switch method {
	case JoinScanFull, JoinScanAbort:
		abort := method == JoinScanAbort
		var out []Pair
		for i := 0; i < len(db.coeffs); i++ {
			ti, err := db.transformed(t, i)
			if err != nil {
				return nil, st, err
			}
			for j := i + 1; j < len(db.coeffs); j++ {
				st.Candidates++
				if abort {
					if d, ok := db.exactDist(j, t, ti, eps); ok {
						out = append(out, Pair{I: i, J: j, Dist: d})
					}
				} else {
					if d := db.fullDist(j, t, ti); d <= eps {
						out = append(out, Pair{I: i, J: j, Dist: d})
					}
				}
			}
		}
		return out, st, nil
	case JoinIndex, JoinIndexT:
		if err := db.ensureTree(); err != nil {
			return nil, st, err
		}
		useT := method == JoinIndexT
		var tf *rtree.Affine
		var err error
		if useT && t != nil {
			tf, err = t.PolarAffine(db.k)
			if err != nil {
				return nil, st, err
			}
		}
		var out []Pair
		for i := 0; i < len(db.coeffs); i++ {
			var probe []complex128
			if useT {
				probe, err = db.transformed(t, i)
				if err != nil {
					return nil, st, err
				}
			} else {
				probe = db.coeffs[i]
			}
			rect, err := SearchRect(coeffFeatures(probe, db.k), eps)
			if err != nil {
				return nil, st, err
			}
			ids, sst, err := db.tree.SearchTransformed(rect, tf)
			if err != nil {
				return nil, st, err
			}
			st.NodeAccesses += sst.NodeAccesses
			for _, j := range ids {
				if j == i {
					continue
				}
				st.Candidates++
				var vt *Transform
				if useT {
					vt = t
				}
				if d, ok := db.exactDist(j, vt, probe, eps); ok {
					out = append(out, Pair{I: i, J: j, Dist: d})
				}
			}
		}
		return out, st, nil
	default:
		return nil, st, fmt.Errorf("tsdb: unknown join method %d", method)
	}
}

// transformed returns T applied to series i's coefficients (or the
// stored coefficients for the identity).
func (db *DB) transformed(t *Transform, i int) ([]complex128, error) {
	if t == nil {
		return db.coeffs[i], nil
	}
	return t.Apply(db.coeffs[i])
}

// coeffFeatures rebuilds a feature point from a (possibly transformed)
// coefficient vector.
func coeffFeatures(X []complex128, k int) []float64 {
	p := make([]float64, 2*k)
	for f := 1; f <= k; f++ {
		p[2*f-2] = cmplx.Abs(X[f])
		p[2*f-1] = cmplx.Phase(X[f])
	}
	return p
}
