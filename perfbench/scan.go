package main

import (
	"fmt"
	"path/filepath"
)

// scan: 100k words, 20k 64-d vectors and a 50-word probe relation on
// unsharded simqd, 2 closed-loop clients. All statements are ad-hoc
// text over 1024 word and 512 vector targets: about 4k distinct texts,
// eight times the plan cache, so most lookups miss it.
const (
	scanWords       = 100000
	scanVecs        = 20000
	scanDim         = 64
	scanProbes      = 50
	scanWordTargets = 1024
	scanVecTargets  = 512
	scanRangeLimit  = 100
	scanK           = 10
)

// scanKinds and scanMix are the operation mix in percent. Weights are
// set so each class gets a hundred or more samples a run while the slow
// ones (string NEAREST, the join) still carry most of the time.
var (
	scanKinds = []string{"within2", "within3", "nearest", "l2", "cosine", "join"}
	scanMix   = mix{35, 10, 10, 20, 22, 3}
)

const scanJoin = `SELECT a.id, b.id FROM probes a, words b ON dist(a.seq, b.seq) <= 1 USING edits`

func runScan(r *runner) error {
	words := genWords(stream(r.seed, "scan/words"), scanWords)
	vecs := genVectors(stream(r.seed, "scan/vecs"), scanVecs, scanDim)
	rng := stream(r.seed, "scan/targets")
	byLen := byLength(words)
	probes := make([]string, scanProbes)
	for i := range probes {
		probes[i] = targetWord(rng, byLen, cycleLen(i), 1)
	}
	vecRows := make([]relRow, len(vecs))
	for i, v := range vecs {
		vecRows[i] = relRow{vec: v}
	}
	files := map[string][]relRow{"words": wordRows(words), "vecs": vecRows, "probes": wordRows(probes)}
	var loads []string
	for _, name := range []string{"words", "vecs", "probes"} {
		file := filepath.Join(r.dir, name+".rel")
		if err := writeRelation(file, files[name]); err != nil {
			return err
		}
		loads = append(loads, name+"="+file)
	}
	d := newDict(words)

	within := func(t string, radius int) *stmt {
		want := memo(func() map[int]float64 { return d.rangeAnswer(t, radius) })
		return &stmt{class: "range",
			text: fmt.Sprintf(`SELECT id, dist FROM words WHERE seq SIMILAR TO "%s" WITHIN %d USING edits LIMIT %d`, t, radius, scanRangeLimit),
			check: func(rows [][]string) error {
				got, err := rowHits(rows)
				if err != nil {
					return err
				}
				return checkRange(got, want(), scanRangeLimit)
			}}
	}
	nearest := func(t string) *stmt {
		want := memo(func() []hit { return d.nearestAnswer(t, scanK) })
		return &stmt{class: "nearest",
			text: fmt.Sprintf(`SELECT id, dist FROM words WHERE seq NEAREST %d TO "%s" USING edits`, scanK, t),
			check: func(rows [][]string) error {
				got, err := rowHits(rows)
				if err != nil {
					return err
				}
				return checkNearest(got, want(), true, nil)
			}}
	}
	vector := func(v []float32, metric string, dist func(a, b []float32) float64) *stmt {
		want := memo(func() []hit { return vecNearestAnswer(vecs, v, scanK, dist) })
		return &stmt{class: "vector",
			text: fmt.Sprintf(`SELECT id, dist FROM vecs WHERE vec NEAREST %d TO %s USING %s`, scanK, vecLiteral(v), metric),
			check: func(rows [][]string) error {
				got, err := rowHits(rows)
				if err != nil {
					return err
				}
				return checkNearest(got, want(), false, func(id int) float64 { return dist(vecs[id], v) })
			}}
	}
	joinWant := memo(func() map[[2]int]bool { return d.joinAnswer(probes, 1) })
	join := &stmt{class: "join", text: scanJoin, check: func(rows [][]string) error {
		got, err := rowPairs(rows)
		if err != nil {
			return err
		}
		return checkPairs(got, joinWant())
	}}

	kinds := map[string][]*stmt{"join": {join}}
	for i := 0; i < scanWordTargets; i++ {
		t := targetWord(rng, byLen, cycleLen(i), 1)
		kinds["within2"] = append(kinds["within2"], within(t, 2))
		kinds["within3"] = append(kinds["within3"], within(t, 3))
		kinds["nearest"] = append(kinds["nearest"], nearest(t))
	}
	for i := 0; i < scanVecTargets; i++ {
		base := vecs[rng.Intn(len(vecs))]
		v := make([]float32, scanDim)
		for j := range v {
			v[j] = round4(float64(base[j]) + rng.NormFloat64()*0.05)
		}
		kinds["l2"] = append(kinds["l2"], vector(v, "l2", l2Dist))
		kinds["cosine"] = append(kinds["cosine"], vector(v, "cosine", cosineDist))
	}
	var pool, warm []*stmt
	for _, k := range scanKinds {
		for _, q := range kinds[k] {
			q.kind = k
		}
		pool = append(pool, kinds[k]...)
		warm = append(warm, kinds[k][0])
	}
	spec := &readSpec{
		loads: loads,
		pool:  pool,
		warm:  warm,
		pins: []pin{
			{kinds["within2"][0], "Vectorize > Limit > Project > IndexRange/trie"},
			{kinds["within3"][0], "Vectorize > Limit > Project > IndexRange/trie"},
			{kinds["nearest"][0], "Vectorize > Project > NearestK/bktree"},
			{kinds["l2"][0], "Vectorize > Project > VecNearestK/vptree"},
			{kinds["cosine"][0], "Vectorize > Project > VecNearestK/scan"},
			{join, "Vectorize > Project > PartitionJoin > Scan"},
		},
		next: func(i int) *stmt {
			c, rank := scanMix.class(r.seed, i)
			qs := kinds[scanKinds[c]]
			return qs[rank%len(qs)]
		},
	}
	return r.runReads(spec)
}
