package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
)

// Every input is drawn from math/rand sources seeded from the --seed
// argument; math/rand keeps a seeded Source's sequence fixed across Go
// releases, so one seed always gives the same data, pools and schedules.

// wordAlphabet is the alphabet of dictionary words. Writes in the
// ingest workload use churnAlphabet, which shares no letter with it: a
// churn word is then at least four edits from every read target, so
// reads keep exact answers while writes go on beside them.
const (
	wordAlphabet  = "abcdefghij"
	churnAlphabet = "klmnopqrst"
)

// stream derives an independent RNG for one use of the seed, so adding
// a draw to one stream never shifts another.
func stream(seed int64, name string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ int64(h)))
}

// mix64 is splitmix64's finalizer. opDraw(seed, i) gives the i-th
// operation's random draw without materializing the sequence, so two
// closed-loop clients sharing one counter walk one deterministic
// sequence, and the traced replay walks the same one.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func opDraw(seed int64, i int) uint64 { return mix64(uint64(seed)*0x100000001b3 + uint64(i)) }

// mix is an operation mix: the percentage of operations of each class,
// summing to 100.
type mix []int

// class is the class of the i-th operation and its rank among the
// operations of that class. Classes are dealt in blocks of 100
// operations, each holding class c exactly m[c] times in an order
// shuffled from the seed and the block number. Every stretch of a run
// then has the workload's mix exactly; and since pools are built with
// their cost-driving property (target length) cycling, taking a class's
// targets in rank order gives every run the same spread of targets.
// Runs on different seeds differ in their data and targets, not in
// their mix.
func (m mix) class(seed int64, i int) (class, rank int) {
	var slots [100]int
	n := 0
	for c, pct := range m {
		for k := 0; k < pct; k++ {
			slots[n] = c
			n++
		}
	}
	if n != len(slots) {
		panic(fmt.Sprintf("operation mix %v does not add up to 100", m))
	}
	block := mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i/100))
	for j := len(slots) - 1; j > 0; j-- {
		k := int(mix64(block+uint64(j)) % uint64(j+1))
		slots[j], slots[k] = slots[k], slots[j]
	}
	class = slots[i%100]
	rank = (i / 100) * m[class]
	for _, c := range slots[:i%100] {
		if c == class {
			rank++
		}
	}
	return class, rank
}

// targetWord draws a target of length near want: a dictionary word of
// that length (or the nearest length present), with up to maxEdits
// random edits. Pools cycle want over the dictionary's lengths, so a
// run's targets spread evenly over them.
func targetWord(rng *rand.Rand, byLen map[int][]string, want, maxEdits int) string {
	for d := 0; ; d++ {
		for _, l := range []int{want - d, want + d} {
			if ws := byLen[l]; len(ws) > 0 {
				return randomEdits(rng, wordAlphabet, ws[rng.Intn(len(ws))], rng.Intn(maxEdits+1))
			}
		}
	}
}

// byLength groups words by length.
func byLength(words []string) map[int][]string {
	out := map[int][]string{}
	for _, w := range words {
		out[len(w)] = append(out[len(w)], w)
	}
	return out
}

// wordLens are the dictionary's word lengths, which pools cycle over.
const minWordLen, maxWordLen = 4, 14

func cycleLen(j int) int { return minWordLen + j%(maxWordLen-minWordLen+1) }

// genWords draws n dictionary words the way cmd/datagen does: lengths 4
// to 14 over wordAlphabet, and a quarter of them one or two random
// edits of an earlier word, so range queries find near neighbours.
func genWords(rng *rand.Rand, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		var w string
		if len(out) > 0 && rng.Intn(4) == 0 {
			w = randomEdits(rng, wordAlphabet, out[rng.Intn(len(out))], 1+rng.Intn(2))
		} else {
			w = randomWord(rng, wordAlphabet, minWordLen+rng.Intn(maxWordLen-minWordLen+1))
		}
		if w != "" {
			out = append(out, w)
		}
	}
	return out
}

func randomWord(rng *rand.Rand, alphabet string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// randomEdits applies k random unit edits (delete, insert, substitute).
func randomEdits(rng *rand.Rand, alphabet, s string, k int) string {
	b := []byte(s)
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 1:
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		case op == 1:
			p := rng.Intn(len(b) + 1)
			b = append(b[:p], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[p:]...)...)
		case len(b) > 0:
			b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
		}
	}
	return string(b)
}

// genVectors draws n dim-dimensional vectors from 16 Gaussian clusters
// (centroids uniform in [-1,1)^dim, members centroid + N(0, 0.1)), as
// cmd/datagen does: clusters give NEAREST natural neighbourhoods and
// keep VP-tree pruning honest. Components are rounded to 4 decimals and
// stored as float32, so the text literal round-trips exactly.
func genVectors(rng *rand.Rand, n, dim int) [][]float32 {
	const clusters = 16
	cent := make([][]float64, clusters)
	for i := range cent {
		cent[i] = make([]float64, dim)
		for j := range cent[i] {
			cent[i][j] = rng.Float64()*2 - 1
		}
	}
	out := make([][]float32, n)
	for i := range out {
		c := cent[rng.Intn(clusters)]
		v := make([]float32, dim)
		for j := range v {
			v[j] = round4(c[j] + rng.NormFloat64()*0.1)
		}
		out[i] = v
	}
	return out
}

func round4(x float64) float32 {
	f, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 4, 64), 32)
	return float32(f)
}

// vecLiteral renders v in the query language's vector-literal syntax.
func vecLiteral(v []float32) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(float64(x), 'g', -1, 32))
	}
	b.WriteByte(']')
	return b.String()
}

// genWalks draws n random walks of the given length (unit Gaussian
// steps), the paper's stock-price stand-in.
func genWalks(rng *rand.Rand, n, length int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, length)
		v := rng.NormFloat64() * 10
		for j := range s {
			v += rng.NormFloat64()
			s[j] = v
		}
		out[i] = s
	}
	return out
}

// relRow is one line of the relation text codec relation.Load reads:
// the sequence, then, for a vector row, a tab and vec=[...].
type relRow struct {
	seq string
	vec []float32
}

func writeRelation(path string, rows []relRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range rows {
		w.WriteString(r.seq)
		if r.vec != nil {
			w.WriteString("\tvec=")
			w.WriteString(vecLiteral(r.vec))
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func wordRows(words []string) []relRow {
	rows := make([]relRow, len(words))
	for i, w := range words {
		rows[i] = relRow{seq: w}
	}
	return rows
}
