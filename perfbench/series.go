package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/dft"
	"repro/internal/tsdb"
)

// series: the paper's own algorithm, in process with one caller.
// Random walks of length 128 in a tsdb k-index (k = 3 DFT coefficients
// in an R*-tree); range queries at eps = 0.5 under the identity, the
// 20-day moving average and the reversal, each applied to the index on
// the fly. simqd does not serve tsdb, so this workload calls the
// library directly.
const (
	seriesCount   = 50000
	seriesLen     = 128
	seriesK       = 3
	seriesEps     = 0.5
	seriesQueries = 300 // query series per data draw, each under every transform
	seriesWindow  = 20
)

// seriesQueries is large because query cost is skewed (p99 is about
// eight times p50), so each kind's median depends on which queries the
// seed draws: with 100 per draw, the same two seeds read 15-25% apart
// run after run.
//
// seriesMix: identity, moving average, reversal.
var seriesMix = mix{34, 33, 33}

// seriesDraws are the data draws every run goes through, in turn: each
// is 50k walks from a fixed data seed, set up (loaded and indexed),
// queried for a third of the measured time, and dropped before the
// next, so only one database is in memory at a time. The R*-tree's
// quality depends on the draw far more than on anything else: over the
// three transforms, a query visits 95-105 nodes on average on draws 1
// and 2 and 170-195 on draw 3, which answers 40-50% fewer queries a
// second; identity queries alone have differed threefold. With one draw
// per seed, series runs would be incomparable; with one pinned draw,
// that draw's luck would decide the figures. Every seed therefore
// stores the same three draws (each run notes nodes per query for each)
// and draws only its queries and operation sequence.
var seriesDraws = []int64{1, 2, 3}

// seriesQuery is one pool entry: a query series and the transform the
// index applies to the stored series.
type seriesQuery struct {
	q    []float64
	name string
	t    *tsdb.Transform
}

// seriesResult is one timed query.
type seriesResult struct {
	sq      *seriesQuery
	ans     []tsdb.Match
	st      tsdb.Stats
	start   time.Duration // since the draw's measured interval began
	lat     time.Duration
	dftTime time.Duration // traced pass: the query's own DFT, timed apart
}

func runSeries(r *runner) error {
	// The database is most of the heap here, and it is live throughout:
	// the default collector pace keeps the process near twice its size
	// instead of five times.
	debug.SetGCPercent(100)
	ma, err := tsdb.MovingAvg(seriesLen, seriesWindow)
	if err != nil {
		return err
	}
	var setups []setupCost
	var samples []sample
	var elapsed, untraced, traced time.Duration
	var nodes, cands, answers int
	var dftUS, lat []float64
	var buildS []float64
	heap := 0.0
	cpu := 0.0
	slice := time.Duration(r.seconds) * time.Second / time.Duration(len(seriesDraws))
	for d, dataSeed := range seriesDraws {
		walks := genWalks(stream(dataSeed, "series/walks"), seriesCount, seriesLen)
		rng := stream(r.seed, fmt.Sprintf("series/queries/%d", d))
		var pool []*seriesQuery
		for i := 0; i < seriesQueries; i++ {
			s := walks[rng.Intn(len(walks))]
			q := make([]float64, seriesLen)
			for j := range q {
				q[j] = s[j] + rng.NormFloat64()*0.2
			}
			smooth, err := tsdb.MovingAverage(q, seriesWindow)
			if err != nil {
				return err
			}
			pool = append(pool,
				&seriesQuery{q: q, name: "identity"},
				&seriesQuery{q: smooth, name: "mavg20", t: ma},
				&seriesQuery{q: tsdb.Reverse(q), name: "reverse", t: tsdb.ReverseT(seriesLen)})
		}

		// Set-up: load every series (DFT features), build the R*-tree,
		// and run one query per transform.
		runtime.GC()
		clock := startSetup()
		db, err := tsdb.New(seriesK)
		if err != nil {
			return err
		}
		for _, s := range walks {
			if _, err := db.Add(s); err != nil {
				return err
			}
		}
		walks = nil
		b := time.Now()
		if err := db.Build(); err != nil {
			return err
		}
		buildS = append(buildS, time.Since(b).Seconds())
		for _, sq := range pool[:3] {
			if _, _, err := db.RangeIndex(sq.q, sq.t, seriesEps); err != nil {
				return err
			}
		}
		setups = append(setups, clock.stop(0))

		var lastSample time.Time
		run := func(until time.Time, traced bool) ([]seriesResult, time.Duration, error) {
			var out []seriesResult
			t0 := time.Now()
			for i := 0; time.Now().Before(until); i++ {
				c, rank := seriesMix.class(r.seed, i)
				sq := pool[3*(rank%seriesQueries)+c]
				var dftTime time.Duration
				if traced {
					t := time.Now()
					dft.TransformReal(sq.q)
					dftTime = time.Since(t)
				}
				t := time.Now()
				ans, st, err := db.RangeIndex(sq.q, sq.t, seriesEps)
				lat := time.Since(t)
				if err != nil {
					return nil, 0, err
				}
				out = append(out, seriesResult{sq, ans, st, t.Sub(t0), lat, dftTime})
				if traced && time.Since(lastSample) > 200*time.Millisecond {
					lastSample = time.Now()
					var m runtime.MemStats
					runtime.ReadMemStats(&m)
					heap = max(heap, float64(m.HeapAlloc))
				}
			}
			return out, time.Since(t0), nil
		}

		untracedN := 0
		if r.trace {
			// The untraced baseline for trace.overhead_ratio: the same
			// first operations without the benchmark's spans.
			base, _, err := run(time.Now().Add(slice/2), false)
			if err != nil {
				return err
			}
			for _, x := range base {
				untraced += x.lat
			}
			untracedN = len(base)
		}
		c0 := cpuTime()
		results, took, err := run(time.Now().Add(slice), r.trace)
		cpu += cpuTime() - c0
		if err != nil {
			return err
		}

		// The oracle runs while this draw's database is still loaded.
		want := map[*seriesQuery][]tsdb.Match{}
		var drawNodes int
		for i, x := range results {
			if i < untracedN {
				// The traced pass's extra work is the separately timed
				// DFT, so it counts toward the traced time.
				traced += x.lat + x.dftTime
			}
			if _, ok := want[x.sq]; !ok {
				if want[x.sq], _, err = db.RangeScan(x.sq.q, x.sq.t, seriesEps); err != nil {
					return err
				}
			}
			s := sample{class: "series", kind: fmt.Sprintf("draw%d/%s", dataSeed, x.sq.name),
				start: elapsed + x.start, lat: x.lat, srvMS: -1, checked: true, err: checkSeries(x.sq, x.ans, want[x.sq])}
			if s.err != nil {
				r.mismatches++
			}
			samples = append(samples, s)
			drawNodes += x.st.NodeAccesses
			cands += x.st.Candidates
			answers += len(x.ans)
			dftUS = append(dftUS, float64(x.dftTime)/1e3)
			lat = append(lat, ms(x.lat))
			if r.trace {
				root := r.addSpan(len(samples)-1, -1, "tsdb.range_index."+x.sq.name, float64(elapsed+x.start)/1e3, float64(x.lat)/1e3)
				r.addSpan(len(samples)-1, root, "dft.transform_real", 0, float64(x.dftTime)/1e3)
			}
		}
		nodes += drawNodes
		elapsed += took
		r.note("series draw %d: %d series, build %.3fs, %d queries, %.1f R-tree nodes per query",
			dataSeed, seriesCount, buildS[d], len(results), ratio(float64(drawNodes), float64(len(results))))
	}
	r.note("series: %d answers, %d candidates, %d node accesses", answers, cands, nodes)
	r.recordOutcome(samples, elapsed, setups)
	if !r.trace {
		return nil
	}
	n := float64(len(samples))
	r.metrics["dft.query_us_p50"] = summarize(dftUS).p50
	r.metrics["rtree.nodes_per_query"] = ratio(float64(nodes), n)
	r.metrics["tsdb.candidates_per_answer"] = ratio(float64(cands), float64(answers))
	r.metrics["tsdb.build_s"] = median(buildS)
	r.metrics["runtime.server_heap_bytes_max"] = heap
	r.metrics["runtime.server_goroutines_max"] = float64(runtime.NumGoroutine())
	r.metrics["trace.overhead_ratio"] = ratio(float64(traced), float64(untraced))
	r.metrics["load.client_cpu_s"] = cpu
	r.note("waterfall (mean ms per query): RangeIndex %.4f, of which the query's DFT (timed on its own) %.4f",
		mean(lat), mean(dftUS)/1e3)
	return nil
}

// checkSeries compares an index answer with the sequential scan's: the
// same series at the same distances, so the index dismissed nothing.
func checkSeries(sq *seriesQuery, got, want []tsdb.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: index found %d series, scan %d", sq.name, len(got), len(want))
	}
	byID := map[int]float64{}
	for _, m := range want {
		byID[m.ID] = m.Dist
	}
	for _, m := range got {
		if d, ok := byID[m.ID]; !ok || d != m.Dist {
			return fmt.Errorf("%s: series %d at %v not in the scan's answer", sq.name, m.ID, m.Dist)
		}
	}
	return nil
}
