package rtree

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// treeDigest hashes the whole tree shape in preorder: every node's
// level, leaf flag, bound bits and the order of its children or
// entries (entry IDs and point bits). Two trees share a digest only if
// they are the same tree down to the last bit.
func treeDigest(t *Tree) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putFloats := func(xs []float64) {
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	var walk func(n *node)
	walk = func(n *node) {
		put(uint64(n.level))
		if n.leaf {
			put(1)
		} else {
			put(0)
		}
		putFloats(n.rect.Min)
		putFloats(n.rect.Max)
		if n.leaf {
			put(uint64(len(n.entries)))
			for _, e := range n.entries {
				put(uint64(e.ID))
				putFloats(e.Point)
			}
			return
		}
		put(uint64(len(n.children)))
		for _, c := range n.children {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	put(uint64(t.size))
	return h.Sum64()
}

// goldenPoints draws the point sets of TestTreeShapeGolden. "uniform"
// is continuous noise; "grid" has many duplicate coordinates and exact
// ties in every area, margin and overlap comparison; "signed" mixes
// +0 and -0 so that the order in which bounds are grown shows in the
// bits.
func goldenPoints(kind string, seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, dim)
		for d := range p {
			switch kind {
			case "uniform":
				p[d] = rng.Float64()*200 - 100
			case "grid":
				p[d] = float64(rng.Intn(7))
			case "signed":
				switch rng.Intn(3) {
				case 0:
					p[d] = 0
				case 1:
					p[d] = math.Copysign(0, -1)
				default:
					p[d] = float64(rng.Intn(5) - 2)
				}
			}
		}
		out[i] = p
	}
	return out
}

// TestTreeShapeGolden pins the exact tree Insert builds for a few
// seeded point sets. Insertion speed-ups must build the identical tree
// (same splits, same forced reinsertions, same bounds to the bit), so
// these digests are never edited to make a change pass.
func TestTreeShapeGolden(t *testing.T) {
	cases := []struct {
		kind        string
		seed        int64
		n, dim, max int
		want        uint64
	}{
		{"uniform", 1, 3000, 6, 32, 0x68d2c74b486a3150},
		{"uniform", 2, 2000, 2, 4, 0x49be73c947fc3bdd},
		{"uniform", 3, 4000, 4, 8, 0xc46a5560c65b7f90},
		{"uniform", 4, 1500, 3, 5, 0xa1f1056942472623},
		{"grid", 5, 3000, 3, 16, 0x490e60ad3273a5b4},
		{"grid", 6, 1000, 2, 4, 0x44d80c32f2d7486e},
		{"signed", 7, 2000, 2, 6, 0xfe4a2b4c7b942bea},
		{"signed", 8, 2000, 4, 32, 0x3801aecfc9b2b3bd},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/seed=%d/n=%d/dim=%d/max=%d", c.kind, c.seed, c.n, c.dim, c.max)
		pts := goldenPoints(c.kind, c.seed, c.n, c.dim)
		tr, err := New(c.dim, c.max)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := tr.Insert(i, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := treeDigest(tr); got != c.want {
			t.Errorf("%s: digest %#016x, want %#016x", name, got, c.want)
		}
	}
}
