package rtree

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzRTreeInsert builds a tree from arbitrary points and checks it
// against brute force: the structural invariants hold, and Search and
// SearchTransformed — with a plain and with a circular Affine — return
// exactly the points a linear scan finds. Coordinates are quarter
// steps in [-32, 32), so duplicates and ties in every area, margin and
// overlap comparison are common.
func FuzzRTreeInsert(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(0), uint8(3), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(3), uint8(7), make([]byte, 200))
	f.Add(uint8(2), uint8(1), []byte{0x80, 0x7f, 0x80, 0x7f, 0, 0, 0x80, 0x80, 0x7f, 0x7f, 1, 0xff})
	f.Fuzz(func(t *testing.T, dimB, maxB uint8, data []byte) {
		dim, maxEntries := 1+int(dimB%4), 4+int(maxB%8)
		if len(data) > 600*dim {
			data = data[:600*dim]
		}
		pts := make([][]float64, len(data)/dim)
		seed := int64(len(data))
		for i := range pts {
			p := make([]float64, dim)
			for d := range p {
				b := data[i*dim+d]
				p[d] = float64(int8(b)) / 4
				seed = seed*31 + int64(b)
			}
			pts[i] = p
		}
		tr, err := New(dim, maxEntries)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := tr.Insert(i, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		plain := &Affine{A: make([]float64, dim), B: make([]float64, dim)}
		circ := &Affine{A: make([]float64, dim), B: make([]float64, dim), Circular: make([]bool, dim)}
		stretches := []float64{-2, -1, -0.5, 0.5, 1, 1.5, 3}
		for d := 0; d < dim; d++ {
			plain.A[d] = stretches[rng.Intn(len(stretches))]
			plain.B[d] = float64(rng.Intn(33)-16) / 4
			circ.A[d], circ.B[d] = plain.A[d], rng.Float64()*8-4
			circ.Circular[d] = d%2 == 1
		}
		for trial := 0; trial < 6; trial++ {
			for _, tf := range []*Affine{nil, plain, circ} {
				lo, hi := make([]float64, dim), make([]float64, dim)
				for d := range lo {
					span := 40.0
					if tf != nil && tf.Circular != nil && tf.Circular[d] {
						span = math.Pi
					}
					a, b := (rng.Float64()*2-1)*span, (rng.Float64()*2-1)*span
					lo[d], hi[d] = math.Min(a, b), math.Max(a, b)
				}
				q, err := NewRect(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := tr.SearchTransformed(q, tf)
				if err != nil {
					t.Fatal(err)
				}
				if want := bruteRange(pts, q, tf); !sameInts(got, want) {
					t.Fatalf("dim %d max %d, %d points, tf %+v, query %+v: got %v, want %v",
						dim, maxEntries, len(pts), tf, q, got, want)
				}
			}
		}
	})
}
