package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTailQuantile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {100000, 0.99},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailQuantile(c.n); q > 0 {
			if beyond := c.n - rankOf(q, c.n); beyond < 10 {
				t.Errorf("n=%d: p%g has %d samples beyond it", c.n, q*100, beyond)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	var xs []float64
	for i := 1000; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.n != 1000 || s.p50 != 500 || s.tq != 0.99 || s.tail != 990 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	if s := summarize(nil); s.p50 != 0 || s.tail != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestMixLatency(t *testing.T) {
	at := func(kind, class string, msec float64, err error) sample {
		return sample{kind: kind, class: class, lat: time.Duration(msec * 1e6), err: err}
	}
	samples := []sample{
		at("a", "range", 1, nil), at("a", "range", 3, nil), at("a", "range", 2, nil),
		at("b", "nearest", 10, nil),
		at("", "write", 500, nil),                           // writes are left out
		at("b", "nearest", 900, errors.New("wrong answer")), // so are failures
	}
	// kind a: median 2 over 3 reads; kind b: median 10 over 1 read.
	if got, want := mixLatency(samples), (3*2.0+1*10.0)/4; got != want {
		t.Errorf("mixLatency = %v, want %v", got, want)
	}
	if got := mixLatency(nil); got != 0 {
		t.Errorf("mixLatency(nil) = %v, want 0", got)
	}
}

// naiveEdit is the textbook full-matrix Levenshtein distance.
func naiveEdit(a, b string) int {
	d := make([][]int, len(a)+1)
	for i := range d {
		d[i] = make([]int, len(b)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			c := 1
			if a[i-1] == b[j-1] {
				c = 0
			}
			d[i][j] = min(d[i-1][j-1]+c, d[i-1][j]+1, d[i][j-1]+1)
		}
	}
	return d[len(a)][len(b)]
}

func TestEditDistAndFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a := randomWord(rng, "abcd", rng.Intn(9))
		b := randomEdits(rng, "abcd", a, rng.Intn(4))
		want := naiveEdit(a, b)
		for bound := 0; bound < 6; bound++ {
			got := editDist(a, b, bound)
			if (want <= bound && got != want) || (want > bound && got != bound+1) {
				t.Fatalf("editDist(%q, %q, %d) = %d, distance is %d", a, b, bound, got, want)
			}
		}
		ha, hb := letterCounts(a), letterCounts(b)
		if lb := lowerBound(&ha, &hb); lb > want {
			t.Fatalf("lowerBound(%q, %q) = %d > distance %d", a, b, lb, want)
		}
	}
}

func TestDictAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	words := genWords(rng, 300)
	d := newDict(words)
	for i := 0; i < 20; i++ {
		target := randomEdits(rng, wordAlphabet, words[rng.Intn(len(words))], 1)
		want := map[int]float64{}
		var all []hit
		for id, w := range words {
			dist := naiveEdit(w, target)
			if dist <= 2 {
				want[id] = float64(dist)
			}
			all = insertHit(all, hit{id, float64(dist)}, len(words))
		}
		if got := d.rangeAnswer(target, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("rangeAnswer(%q) = %v, want %v", target, got, want)
		}
		if got := d.nearestAnswer(target, 7); !reflect.DeepEqual(got, all[:7]) {
			t.Fatalf("nearestAnswer(%q) = %v, want %v", target, got, all[:7])
		}
	}
}

func TestCheckRange(t *testing.T) {
	want := map[int]float64{1: 0, 4: 1, 9: 1}
	cases := []struct {
		got   []hit
		limit int
		ok    bool
	}{
		{[]hit{{4, 1}, {1, 0}, {9, 1}}, 20, true},
		{[]hit{{9, 1}, {4, 1}}, 2, true},
		{[]hit{{4, 1}, {1, 0}}, 20, false},         // one qualifying row missing
		{[]hit{{4, 1}, {1, 0}, {7, 1}}, 20, false}, // a row that does not qualify
		{[]hit{{4, 2}, {1, 0}, {9, 1}}, 20, false}, // wrong distance
		{[]hit{{4, 1}, {4, 1}, {9, 1}}, 20, false}, // repeated row
		{[]hit{{4, 1}, {1, 0}, {9, 1}}, 2, false},  // over the limit
	}
	for i, c := range cases {
		if err := checkRange(c.got, want, c.limit); (err == nil) != c.ok {
			t.Errorf("case %d: checkRange = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestCheckNearest(t *testing.T) {
	exact := []hit{{3, 0}, {1, 1}, {8, 1}}
	if err := checkNearest([]hit{{3, 0}, {1, 1}, {8, 1}}, exact, true, nil); err != nil {
		t.Error(err)
	}
	if err := checkNearest([]hit{{3, 0}, {8, 1}, {1, 1}}, exact, true, nil); err == nil {
		t.Error("ties must come in id order")
	}
	if err := checkNearest([]hit{{3, 0}, {1, 1}}, exact, true, nil); err == nil {
		t.Error("short answer accepted")
	}

	dists := map[int]float64{3: 0.5, 1: 0.75, 8: 0.75 + 1e-13, 5: 0.9}
	dist := func(id int) float64 { return dists[id] }
	want := []hit{{3, 0.5}, {1, 0.75}, {8, 0.75 + 1e-13}}
	if err := checkNearest([]hit{{3, 0.5}, {8, 0.75 + 1e-13}, {1, 0.75}}, want, false, dist); err != nil {
		t.Errorf("near-tie in either order: %v", err)
	}
	if err := checkNearest([]hit{{3, 0.5}, {1, 0.75}, {5, 0.9}}, want, false, dist); err == nil {
		t.Error("row outside the top-k accepted")
	}
	if err := checkNearest([]hit{{3, 0.5}, {1, 0.75}, {5, 0.75}}, want, false, dist); err == nil {
		t.Error("row reporting a distance it does not have accepted")
	}
}

func TestCheckPairs(t *testing.T) {
	want := map[[2]int]bool{{0, 4}: true, {1, 2}: true}
	if err := checkPairs([][2]int{{1, 2}, {0, 4}}, want); err != nil {
		t.Error(err)
	}
	for _, got := range [][][2]int{{{1, 2}}, {{1, 2}, {0, 4}, {0, 5}}, {{1, 2}, {1, 2}, {0, 4}}} {
		if err := checkPairs(got, want); err == nil {
			t.Errorf("checkPairs(%v) accepted", got)
		}
	}
}

func TestPlanShape(t *testing.T) {
	plan := "Vectorize(batch=20, kernel=myers)\n└─ Limit(20)\n   └─ Project(id, dist)\n      └─ IndexRange(words via trie, target=abc, radius=1, ruleset=edits)"
	if got, want := planShape(plan), "Vectorize > Limit > Project > IndexRange/trie"; got != want {
		t.Errorf("planShape = %q, want %q", got, want)
	}
}

func TestOpSequenceIsDeterministic(t *testing.T) {
	if opDraw(7, 3) != opDraw(7, 3) || opDraw(7, 3) == opDraw(8, 3) || opDraw(7, 3) == opDraw(7, 4) {
		t.Error("opDraw is not a function of (seed, index) alone")
	}
	a := genWords(stream(5, "x"), 100)
	b := genWords(stream(5, "x"), 100)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different words")
	}
}

// TestChurnSchedule checks the ingest writer's model: the schedule is a
// function of the seed and the acknowledged results, and every row an
// update or delete names is one the writer inserted and has not
// touched since.
func TestChurnSchedule(t *testing.T) {
	run := func() []string {
		c := &churn{seed: 3}
		var log []string
		next := 0
		for i := 0; i < 400; i++ {
			w := c.plan(i)
			var ids []int
			for range w.rows {
				ids = append(ids, next)
				next++
			}
			if w.target != nil && !slices.Contains(c.eligible, w.target) {
				t.Fatalf("write %d targets row %s, which is gone or updated", i, w.target.key)
			}
			if err := c.ack(w, ids, 1); err != nil {
				t.Fatal(err)
			}
			log = append(log, w.kind)
		}
		return log
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("schedule differs between two runs of one seed")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics the benchmark emits.
func TestBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bench struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}
	want := bench{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: 20,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workload{w.name, w.why})
	}
	for _, d := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, metric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, metric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bench
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	// Bounds are BENCHMARK.json's alone: each end-to-end metric has one,
	// at most 0.25, and no per-layer metric has one.
	for i, m := range got.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
		got.EndToEnd[i].Bound = nil
	}
	if !reflect.DeepEqual(got, want) {
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json does not match the benchmark; it should read:\n%s", exp)
	}
	names := map[string]bool{}
	for _, m := range append(append([]metric(nil), want.EndToEnd...), want.PerLayer...) {
		if names[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		names[m.Name] = true
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}
