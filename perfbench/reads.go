package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// stmt is one statement of a workload's pool: what is sent, how the
// in-process replay runs it, and how its answer is checked.
type stmt struct {
	class string // op class: range, nearest, vector, join
	kind  string // the workload's own statement kind, e.g. within2; latency_ms weighs these
	text  string // statement text
	body  []byte // the /v1/query request body
	check func(rows [][]string) error
}

// readSpec describes an HTTP read workload.
type readSpec struct {
	loads []string          // simqd -load specs (NAME=FILE)
	pool  []*stmt           // every statement the workload sends
	warm  []*stmt           // sent once at set-up, after the pins
	pins  []pin             // plan shapes checked at set-up
	next  func(i int) *stmt // the i-th operation of the sequence
}

// pin is one statement whose plan shape is checked with EXPLAIN at
// set-up, so planner drift fails the run instead of silently changing
// what a workload measures.
type pin struct {
	q    *stmt
	want string // operator names from the root down, as planShape renders them
}

// planShape reduces an EXPLAIN tree to its operator names and access
// paths, dropping targets, radii and batch sizes.
func planShape(plan string) string {
	var parts []string
	for _, line := range strings.Split(plan, "\n") {
		line = strings.TrimLeft(line, " │├└─")
		if line == "" {
			continue
		}
		name, rest, _ := strings.Cut(line, "(")
		if _, via, ok := strings.Cut(rest, " via "); ok {
			idx, _, _ := strings.Cut(via, ",")
			idx, _, _ = strings.Cut(idx, ")")
			name += "/" + idx
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, " > ")
}

// queryResponse is the /v1/query answer.
type queryResponse struct {
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// sample is one timed operation.
type sample struct {
	q       *stmt
	class   string
	kind    string
	start   time.Duration // since the measured interval began
	lat     time.Duration // from send (or, open loop, from due time) to the whole answer read
	lag     time.Duration // open loop: how late the request was sent
	srvMS   float64       // server-reported elapsed_ms; -1 when the answer has none
	bytes   int
	resp    []byte // answer body, checked after the run
	err     error
	checked bool // the answer was checked inline (writes)
}

// setupServer starts simqd and runs the workload's set-up: pins, then
// warm-up of every lazy structure. It returns the server and the
// set-up time.
func (r *runner) setupServer(spec *readSpec, args []string) (*simqd, setupCost, error) {
	clock := startSetup()
	srv, err := startSimqd(r.client, r.simqdBin, r.dir+"/simqd.log", args...)
	if err != nil {
		return nil, setupCost{}, err
	}
	if err := r.warmServer(srv, spec); err != nil {
		srv.kill()
		return nil, setupCost{}, err
	}
	return srv, clock.stop(srv.cmd.Process.Pid), nil
}

func (r *runner) warmServer(srv *simqd, spec *readSpec) error {
	for _, p := range spec.pins {
		out, err := post(r.client, srv.base+"/v1/explain", bodyFor(p.q))
		if err != nil {
			return fmt.Errorf("explain %q: %w", p.q.text, err)
		}
		var resp struct{ Plan string }
		if err := json.Unmarshal(out, &resp); err != nil {
			return err
		}
		if got := planShape(resp.Plan); got != p.want {
			return fmt.Errorf("plan drift: %s\n  plan: %s\n  want: %s", p.q.text, got, p.want)
		}
	}
	for _, q := range spec.warm {
		if _, err := post(r.client, srv.base+"/v1/query", bodyFor(q)); err != nil {
			return fmt.Errorf("warm-up %q: %w", q.text, err)
		}
	}
	return nil
}

// bodyFor renders q's request body.
func bodyFor(q *stmt) []byte {
	b, _ := json.Marshal(map[string]string{"query": q.text})
	return b
}

// closedLoop runs clients closed-loop callers until the deadline; each
// takes the next operation index from one shared counter, so together
// they walk one deterministic sequence. every, when set, runs on client
// 0 between operations, outside any timed operation.
func closedLoop(clients int, until time.Time, do func(i int, t0 time.Time) sample, every func()) ([]sample, time.Duration) {
	var next atomic.Int64
	per := make([][]sample, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(until) {
				per[c] = append(per[c], do(int(next.Add(1)-1), t0))
				if c == 0 && every != nil {
					every()
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// sendQuery times one /v1/query request: from send until the whole
// answer is read. The answer is decoded later, outside the timing.
func sendQuery(client *http.Client, base string, q *stmt, t0 time.Time) sample {
	start := time.Now()
	out, err := post(client, base+"/v1/query", q.body)
	return sample{q: q, class: q.class, kind: q.kind, start: start.Sub(t0), lat: time.Since(start), resp: out, err: err, srvMS: -1, bytes: len(out)}
}

// checkSamples decodes every answer and checks it against the oracle,
// on two goroutines (the server is idle by now). It returns the number
// of failed operations and, separately, of answers that were wrong.
func checkSamples(samples []sample) (failed, wrong int, firstErr error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(samples) {
					return
				}
				s := &samples[i]
				err, bad := s.err, false
				if err == nil && !s.checked {
					var resp queryResponse
					if err = json.Unmarshal(s.resp, &resp); err == nil {
						s.srvMS = resp.ElapsedMS
						if err = s.q.check(resp.Rows); err != nil {
							err, bad = fmt.Errorf("%s: %w", s.q.text, err), true
						}
					}
				}
				s.resp = nil
				if err != nil {
					s.err = err
					mu.Lock()
					failed++
					if bad {
						wrong++
					}
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return failed, wrong, firstErr
}

// recordOutcome folds checked samples into the run's counts and, with
// tracing off, its end-to-end metrics.
func (r *runner) recordOutcome(samples []sample, elapsed time.Duration, setups []setupCost) {
	failed, wrong, firstErr := checkSamples(samples)
	r.attempted += len(samples)
	r.failed += failed
	r.mismatches += wrong
	if firstErr != nil {
		r.note("first failure: %v", firstErr)
	}
	var lat []float64
	for _, s := range samples {
		if s.err == nil {
			lat = append(lat, ms(s.lat))
		}
	}
	sum := summarize(lat)
	r.note("%s: %d ops in %.2fs, %s", r.workload, len(samples), elapsed.Seconds(), sum)
	r.classLatencies(samples)
	tput := windowedThroughput(samples, elapsed)
	r.note("throughput %.1f/s", tput)
	if r.trace {
		r.metrics["op.throughput_ops_s"] = tput
		return
	}
	var wall, cpus []float64
	for _, s := range setups {
		wall = append(wall, s.wall)
		cpus = append(cpus, s.cpu)
	}
	r.metrics["setup_s"] = median(cpus)
	r.metrics["latency_ms"] = mixLatency(samples)
	r.note("set-ups: CPU s %.4f, wall s %.4f", cpus, wall)
}

// windowedThroughput splits the run into equal time windows of about a
// second (fewer when a window would hold under 200 operations) and
// reports the median over windows of completed operations per second.
// A stall, or a burst of load from outside, that hits a few windows of
// a run then moves the figure by no more than it moves those windows'
// ranks; periodic costs such as checkpoints land in every window and
// still count in full.
func windowedThroughput(samples []sample, elapsed time.Duration) float64 {
	const samplesPerWindow = 200
	w := max(1, min(int(elapsed.Seconds()), len(samples)/samplesPerWindow))
	done := make([]float64, w)
	for _, s := range samples {
		if s.err == nil {
			done[min(w-1, int(float64(s.start)/float64(elapsed)*float64(w)))]++
		}
	}
	for k := range done {
		done[k] /= elapsed.Seconds() / float64(w)
	}
	return median(done)
}

// mixLatency is latency_ms: the median latency of each statement kind
// the workload reads with, weighted by the kind's share of the reads.
// Each kind's median resists stalls that hit a few operations; the
// weights make every kind count by its share of the work, so a slower
// kind moves the figure by its share of the time even when it is a
// small share of the operations (on scan, string NEAREST and the join
// are an eighth of the reads and about four fifths of the figure).
//
// Writes are left out: an open-loop write is timed from when it was
// due, and on two cores shared with the server and the reader the
// generator itself wakes late by milliseconds (load.lag_ms_p99), by
// amounts that differ from run to run. Write latency is reported per
// class in the traced run.
func mixLatency(samples []sample) float64 {
	by := map[string][]float64{}
	n := 0
	for _, s := range samples {
		if s.err == nil && s.class != "write" {
			by[s.kind] = append(by[s.kind], ms(s.lat))
			n++
		}
	}
	kinds := make([]string, 0, len(by))
	for k := range by {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var sum float64
	for _, k := range kinds {
		sum += float64(len(by[k])) * median(by[k])
	}
	return ratio(sum, float64(n))
}

// classLatencies notes latency per op class and, in the traced run,
// reports it.
func (r *runner) classLatencies(samples []sample) {
	by := map[string][]float64{}
	for _, s := range samples {
		if s.err == nil {
			by[s.class] = append(by[s.class], ms(s.lat))
		}
	}
	for _, c := range opClasses {
		sum := summarize(by[c])
		if r.trace {
			r.metrics["op."+c+"_p50_ms"] = sum.p50
			r.metrics["op."+c+"_p99_ms"] = sum.tail
		}
		if sum.n > 0 {
			r.note("  op %-8s %s", c, sum)
		}
	}
}

// rowHits parses [id, dist] rows.
func rowHits(rows [][]string) ([]hit, error) {
	out := make([]hit, len(rows))
	for i, row := range rows {
		if len(row) != 2 {
			return nil, fmt.Errorf("row %d has %d columns", i, len(row))
		}
		id, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, err
		}
		d, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, err
		}
		out[i] = hit{id, d}
	}
	return out, nil
}

// rowPairs parses [a.id, b.id] rows.
func rowPairs(rows [][]string) ([][2]int, error) {
	out := make([][2]int, len(rows))
	for i, row := range rows {
		if len(row) != 2 {
			return nil, fmt.Errorf("row %d has %d columns", i, len(row))
		}
		a, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, err
		}
		b, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, err
		}
		out[i] = [2]int{a, b}
	}
	return out, nil
}

// memo computes an oracle answer once, on first use.
func memo[T any](f func() T) func() T {
	var once sync.Once
	var v T
	return func() T { once.Do(func() { v = f() }); return v }
}

// runReads runs a closed-loop HTTP read workload: set-up (repeated
// with tracing off, for setup_s), the measured loop, then the oracle
// check. With tracing on it also scrapes /metrics around the loop and
// replays the same sequence in process.
func (r *runner) runReads(spec *readSpec) error {
	var args []string
	for _, l := range spec.loads {
		args = append(args, "-load", l)
	}
	var setups []setupCost
	var srv *simqd
	for {
		s, cost, err := r.setupServer(spec, args)
		if err != nil {
			return err
		}
		setups = append(setups, cost)
		if !r.moreSetups(setups) {
			srv = s
			break
		}
		s.kill()
	}
	for _, q := range spec.pool {
		q.body = bodyFor(q)
	}
	seen := &gaugeMax{}
	before, err := scrape(r.client, srv.base)
	if err != nil {
		srv.kill()
		return err
	}
	every := func() {}
	if r.trace {
		every = seen.sampler(r.client, srv.base)
	}
	cpu := cpuTime()
	samples, elapsed := closedLoop(maxConns, r.deadline(), func(i int, t0 time.Time) sample {
		return sendQuery(r.client, srv.base, spec.next(i), t0)
	}, every)
	cpu = cpuTime() - cpu
	after, err := scrape(r.client, srv.base)
	srv.stop()
	if err != nil {
		return err
	}
	r.recordOutcome(samples, elapsed, setups)
	if !r.trace {
		return nil
	}
	seen.observe(after)
	r.serverLayers(samples, before, after, seen)
	r.metrics["load.client_cpu_s"] = cpu
	return r.replayReads(spec, len(samples))
}
