package main

import (
	"fmt"
	"math"
	"sort"
)

// The oracle computes every expected answer from the generated data
// with code of its own: no engine, planner, index or kernel code runs
// here, so a defect in any of them shows as a mismatch.

// hit is one answer row: a row id and its distance to the target.
type hit struct {
	id   int
	dist float64
}

// editDist returns the unit-cost Levenshtein distance of a and b when
// it is at most bound, and bound+1 otherwise.
func editDist(a, b string, bound int) int {
	if d := len(a) - len(b); d > bound || -d > bound {
		return bound + 1
	}
	var rowA, rowB [64]int
	prev, cur := rowA[:], rowB[:]
	if len(b)+1 > len(rowA) {
		prev, cur = make([]int, len(b)+1), make([]int, len(b)+1)
	}
	prev, cur = prev[:len(b)+1], cur[:len(b)+1]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		low := cur[0]
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			v := min(sub, prev[j]+1, cur[j-1]+1)
			cur[j] = v
			low = min(low, v)
		}
		if low > bound {
			return bound + 1
		}
		prev, cur = cur, prev
	}
	if prev[len(b)] > bound {
		return bound + 1
	}
	return prev[len(b)]
}

// dict is a word list with each word's letter counts. Every unit edit
// changes the letter counts by at most 2 in L1 distance, so half that
// distance is a lower bound on the edit distance: the oracle skips most
// words without running the DP.
type dict struct {
	words []string
	hist  [][26]uint8
}

func newDict(words []string) *dict {
	d := &dict{words: words, hist: make([][26]uint8, len(words))}
	for i, w := range words {
		d.hist[i] = letterCounts(w)
	}
	return d
}

func letterCounts(w string) (h [26]uint8) {
	for i := 0; i < len(w); i++ {
		h[(w[i]-'a')%26]++
	}
	return h
}

// lowerBound is ceil(L1(letter counts)/2) <= editDist.
func lowerBound(a, b *[26]uint8) int {
	l1 := 0
	for i := range a {
		d := int(a[i]) - int(b[i])
		if d < 0 {
			d = -d
		}
		l1 += d
	}
	return (l1 + 1) / 2
}

// within returns the distance of word id to target when it is at most
// bound, and bound+1 otherwise.
func (d *dict) within(id int, target string, th *[26]uint8, bound int) int {
	if lowerBound(&d.hist[id], th) > bound {
		return bound + 1
	}
	return editDist(d.words[id], target, bound)
}

// rangeAnswer lists every word within radius of target, by id.
func (d *dict) rangeAnswer(target string, radius int) map[int]float64 {
	th := letterCounts(target)
	out := map[int]float64{}
	for id := range d.words {
		if dist := d.within(id, target, &th, radius); dist <= radius {
			out[id] = float64(dist)
		}
	}
	return out
}

// nearestAnswer is the exact top-k of the words by (distance, id).
// Ids are visited in ascending order, so a later word at the k-th
// distance never displaces an earlier one.
func (d *dict) nearestAnswer(target string, k int) []hit {
	th := letterCounts(target)
	best := make([]hit, 0, k+1)
	bound := 1 << 20
	for id := range d.words {
		dist := d.within(id, target, &th, bound)
		if dist > bound || (len(best) == k && float64(dist) >= best[k-1].dist) {
			continue
		}
		best = insertHit(best, hit{id, float64(dist)}, k)
		if len(best) == k {
			bound = int(best[k-1].dist)
		}
	}
	return best
}

// insertHit adds h to the (dist, id)-sorted list, keeping at most k.
func insertHit(best []hit, h hit, k int) []hit {
	i := sort.Search(len(best), func(i int) bool { return hitLess(h, best[i]) })
	best = append(best, hit{})
	copy(best[i+1:], best[i:])
	best[i] = h
	if len(best) > k {
		best = best[:k]
	}
	return best
}

func hitLess(a, b hit) bool { return a.dist < b.dist || (a.dist == b.dist && a.id < b.id) }

func l2Dist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

func cosineDist(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		dot += x * y
		na += x * x
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return math.Max(0, 1-dot/math.Sqrt(na*nb))
}

// vecNearestAnswer is the exact top-k of vecs by (distance, id).
func vecNearestAnswer(vecs [][]float32, q []float32, k int, dist func(a, b []float32) float64) []hit {
	best := make([]hit, 0, k+1)
	for id, v := range vecs {
		d := dist(v, q)
		if len(best) == k && !hitLess(hit{id, d}, best[k-1]) {
			continue
		}
		best = insertHit(best, hit{id, d}, k)
	}
	return best
}

// joinAnswer is every (probe id, word id) pair within radius.
func (d *dict) joinAnswer(probes []string, radius int) map[[2]int]bool {
	out := map[[2]int]bool{}
	for a, p := range probes {
		th := letterCounts(p)
		for b := range d.words {
			if d.within(b, p, &th, radius) <= radius {
				out[[2]int{a, b}] = true
			}
		}
	}
	return out
}

// distTol is how far a reported float distance may sit from the
// oracle's: the engine sums in a different order, which moves the last
// few bits.
func distTol(d float64) float64 { return 1e-9 * math.Max(1, math.Abs(d)) }

// checkRange checks a WITHIN answer: every row qualifies at its exact
// distance, no row repeats, and the row count is min(limit, number of
// qualifying rows).
func checkRange(got []hit, want map[int]float64, limit int) error {
	seen := map[int]bool{}
	for _, h := range got {
		d, ok := want[h.id]
		if !ok {
			return fmt.Errorf("row %d does not qualify", h.id)
		}
		if h.dist != d {
			return fmt.Errorf("row %d at distance %v, want %v", h.id, h.dist, d)
		}
		if seen[h.id] {
			return fmt.Errorf("row %d repeated", h.id)
		}
		seen[h.id] = true
	}
	if n := min(limit, len(want)); len(got) != n {
		return fmt.Errorf("%d rows, want %d", len(got), n)
	}
	return nil
}

// checkNearest checks a NEAREST answer against the exact (dist, id)
// top-k. With exact distances the ids must match position by position.
// Float distances may differ in the last bits, so there a position only
// has to carry a distance within tolerance of the oracle's, and each
// id must be a row whose own oracle distance matches what it reports:
// rows that tie within tolerance may then come in either order.
func checkNearest(got, want []hit, exact bool, dist func(id int) float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	seen := map[int]bool{}
	for i, h := range got {
		if seen[h.id] {
			return fmt.Errorf("row %d repeated", h.id)
		}
		seen[h.id] = true
		if exact {
			if h != want[i] {
				return fmt.Errorf("position %d is (%v, %d), want (%v, %d)", i, h.dist, h.id, want[i].dist, want[i].id)
			}
			continue
		}
		if math.Abs(h.dist-want[i].dist) > distTol(want[i].dist) {
			return fmt.Errorf("position %d at distance %v, want %v", i, h.dist, want[i].dist)
		}
		if d := dist(h.id); math.Abs(h.dist-d) > distTol(d) {
			return fmt.Errorf("row %d reports distance %v, its distance is %v", h.id, h.dist, d)
		}
	}
	return nil
}

// checkPairs checks a join answer: exactly the oracle's pair set.
func checkPairs(got [][2]int, want map[[2]int]bool) error {
	seen := map[[2]int]bool{}
	for _, p := range got {
		if !want[p] {
			return fmt.Errorf("pair %v does not qualify", p)
		}
		if seen[p] {
			return fmt.Errorf("pair %v repeated", p)
		}
		seen[p] = true
	}
	if len(seen) != len(want) {
		return fmt.Errorf("%d pairs, want %d", len(seen), len(want))
	}
	return nil
}
