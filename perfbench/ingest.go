package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/internal/storage"
)

// ingest: simqd -shards 2 -wal with its default flush policy (fsync on
// every commit, group commit on), an open-loop writer at a fixed rate
// well below capacity, and one closed-loop reader. The base is small
// and a third of the writes tombstone a row, so every run completes
// several compactions; a checkpoint follows every ingestCheckpointEvery
// writes. The run ends with SIGKILL and a restart on the same WAL and
// checkpoint, after which every acknowledged write must be visible and
// every acknowledged delete gone.
const (
	ingestBase            = 1000
	ingestShards          = 2
	ingestRate            = 250 // writes per second
	ingestCheckpointEvery = 1000
	ingestTargets         = 512
	ingestLimit           = 20
	ingestK               = 5
	flushPolicy           = "fsync on every commit, group commit on (simqd defaults)"
)

// churnRow is one row the writer inserted, tracked by its key attribute
// k. An update gives the row a new id the writer does not learn, so an
// updated row is never touched again.
type churnRow struct {
	key, seq string
	id       int
	alive    bool
}

// churn is the writer's model of the rows it wrote. The schedule is a
// function of the seed and the acknowledged results, so the HTTP pass
// and the in-process replay issue the same writes.
type churn struct {
	seed     int64
	rows     []*churnRow
	eligible []*churnRow // alive, never updated: their id is known
	bytes    int         // seq and attribute bytes written
}

// write is one scheduled write.
type write struct {
	kind   string      // insert, batch, update, delete
	rows   []*churnRow // inserted rows
	target *churnRow   // update or delete target
	seq    string      // update's new seq
}

// readMix: WITHIN 1 or 2, then NEAREST. writeMix: single-row insert,
// batch insert, update, delete.
var (
	readMix    = mix{75, 25}
	writeKinds = []string{"insert", "batch", "update", "delete"}
	writeMix   = mix{35, 10, 25, 30}
)

func (c *churn) plan(i int) *write {
	d := opDraw(c.seed^0x77726974, i)
	rng := rand.New(rand.NewSource(int64(d)))
	word := func() string { return randomWord(rng, churnAlphabet, 4+rng.Intn(7)) }
	kind, _ := writeMix.class(c.seed, i)
	w := &write{kind: writeKinds[kind]}
	if (w.kind == "update" || w.kind == "delete") && len(c.eligible) == 0 {
		w.kind = "insert"
	}
	if w.kind == "update" {
		w.seq = word()
	}
	switch w.kind {
	case "update", "delete":
		w.target = c.eligible[int((d>>8)%uint64(len(c.eligible)))]
	default:
		n := 1
		if w.kind == "batch" {
			n = 2 + rng.Intn(3)
		}
		for j := 0; j < n; j++ {
			w.rows = append(w.rows, &churnRow{key: "c" + strconv.Itoa(len(c.rows)+j), seq: word()})
		}
	}
	return w
}

// ack applies an acknowledged write to the model and checks what the
// server reported: one id per inserted row, one row per update or
// delete.
func (c *churn) ack(w *write, ids []int, count int) error {
	switch w.kind {
	case "update", "delete":
		if count != 1 {
			return fmt.Errorf("%s of row %d touched %d rows", w.kind, w.target.id, count)
		}
		for i, e := range c.eligible {
			if e == w.target {
				c.eligible = append(c.eligible[:i], c.eligible[i+1:]...)
				break
			}
		}
		if w.kind == "delete" {
			w.target.alive = false
			return nil
		}
		w.target.seq = w.seq
		c.bytes += len(w.seq)
		return nil
	}
	if len(ids) != len(w.rows) {
		return fmt.Errorf("insert of %d rows returned %d ids", len(w.rows), len(ids))
	}
	for j, row := range w.rows {
		row.id, row.alive = ids[j], true
		c.rows = append(c.rows, row)
		c.eligible = append(c.eligible, row)
		c.bytes += len(row.seq) + len("k") + len(row.key)
	}
	return nil
}

func (w *write) dml() string {
	if w.kind == "update" {
		return fmt.Sprintf(`UPDATE items SET seq = "%s" WHERE id = "%d"`, w.seq, w.target.id)
	}
	return fmt.Sprintf(`DELETE FROM items WHERE id = "%d"`, w.target.id)
}

func (w *write) ops() []storage.Op {
	ops := make([]storage.Op, len(w.rows))
	for j, row := range w.rows {
		ops[j] = storage.Op{Kind: storage.OpInsert, Rel: "items", Seq: row.seq, Attrs: map[string]string{"k": row.key}}
	}
	return ops
}

// send issues w over HTTP and returns the ids or row count reported.
func (w *write) send(client *http.Client, base string) (ids []int, count int, err error) {
	if w.kind == "update" || w.kind == "delete" {
		body, _ := json.Marshal(map[string]string{"query": w.dml()})
		out, err := post(client, base+"/v1/query", body)
		if err != nil {
			return nil, 0, err
		}
		var resp queryResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			return nil, 0, err
		}
		if len(resp.Rows) != 1 || len(resp.Rows[0]) != 1 {
			return nil, 0, fmt.Errorf("%s answered %v", w.kind, resp.Rows)
		}
		count, err = strconv.Atoi(resp.Rows[0][0])
		return nil, count, err
	}
	type row struct {
		Seq   string            `json:"seq"`
		Attrs map[string]string `json:"attrs"`
	}
	req := struct {
		Relation string `json:"relation"`
		Rows     []row  `json:"rows"`
	}{Relation: "items"}
	for _, cr := range w.rows {
		req.Rows = append(req.Rows, row{cr.seq, map[string]string{"k": cr.key}})
	}
	body, _ := json.Marshal(req)
	out, err := post(client, base+"/v1/ingest", body)
	if err != nil {
		return nil, 0, err
	}
	var resp struct{ IDs []int }
	err = json.Unmarshal(out, &resp)
	return resp.IDs, 0, err
}

func runIngest(r *runner) error {
	base := genWords(stream(r.seed, "ingest/words"), ingestBase)
	file := filepath.Join(r.dir, "items.rel")
	if err := writeRelation(file, wordRows(base)); err != nil {
		return err
	}
	d := newDict(base)
	rng := stream(r.seed, "ingest/targets")
	byLen := byLength(base)
	var ranges, nearests []*stmt
	for len(ranges) < 2*ingestTargets {
		t := targetWord(rng, byLen, cycleLen(len(ranges)/2), 1)
		for _, radius := range []int{1, 2} {
			want := memo(func() map[int]float64 { return d.rangeAnswer(t, radius) })
			ranges = append(ranges, &stmt{class: "range", kind: fmt.Sprintf("within%d", radius),
				text: fmt.Sprintf(`SELECT id, dist FROM items WHERE seq SIMILAR TO "%s" WITHIN %d USING edits LIMIT %d`, t, radius, ingestLimit),
				check: func(rows [][]string) error {
					got, err := rowHits(rows)
					if err != nil {
						return err
					}
					return checkRange(got, want(), ingestLimit)
				}})
		}
		// A churn word shares no letter with t, so it is exactly
		// max(len) edits away: at least max(len(t), 4). Base rows have
		// lower ids than any churn row and win ties, so a NEAREST whose
		// k-th base neighbour is that close keeps an exact answer
		// however the churn goes.
		want := d.nearestAnswer(t, ingestK)
		if len(want) < ingestK || want[ingestK-1].dist > float64(max(len(t), 4)) {
			continue
		}
		nearests = append(nearests, &stmt{class: "nearest", kind: "nearest",
			text: fmt.Sprintf(`SELECT id, dist FROM items WHERE seq NEAREST %d TO "%s" USING edits`, ingestK, t),
			check: func(rows [][]string) error {
				got, err := rowHits(rows)
				if err != nil {
					return err
				}
				return checkNearest(got, want, true, nil)
			}})
	}
	if len(nearests) == 0 {
		return fmt.Errorf("ingest: no NEAREST target keeps an exact answer beside the churn")
	}
	pool := append(append([]*stmt(nil), ranges...), nearests...)
	spec := &readSpec{
		loads: []string{"items=" + file},
		pool:  pool,
		warm:  []*stmt{ranges[0], ranges[1], nearests[0]},
		pins: []pin{
			{ranges[0], "Vectorize > Limit > Project > GatherMerge > Limit > IndexRange/bktree"},
			{nearests[0], "Vectorize > Project > GatherMerge > ShardNearestK/bktree"},
		},
		next: func(i int) *stmt {
			c, rank := readMix.class(r.seed, i)
			if c == 1 {
				return nearests[rank%len(nearests)]
			}
			return ranges[rank%len(ranges)]
		},
	}
	for _, q := range pool {
		q.body = bodyFor(q)
	}
	r.note("flush policy: %s", flushPolicy)

	args := func(dir string) []string {
		return []string{"-shards", strconv.Itoa(ingestShards), "-wal", filepath.Join(dir, "items.wal"), "-load", spec.loads[0]}
	}
	var setups []setupCost
	var srv *simqd
	var walDir string
	for i := 0; ; i++ {
		walDir = filepath.Join(r.dir, fmt.Sprintf("wal%d", i))
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return err
		}
		s, cost, err := r.setupServer(spec, args(walDir))
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

	seen := &gaugeMax{}
	before, err := scrape(r.client, srv.base)
	if err != nil {
		srv.kill()
		return err
	}
	every := func() {}
	if r.trace {
		// Gauges are scraped from the reader, so the open-loop writer
		// keeps its schedule.
		every = seen.sampler(r.client, srv.base)
	}
	c := &churn{seed: r.seed}
	cpu := cpuTime()
	until := r.deadline()
	t0 := time.Now()
	var writes, reads []sample
	var wrong int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		writes, wrong = r.writeLoop(c, srv.base, t0, until)
	}()
	go func() {
		defer wg.Done()
		reads, _ = closedLoop(1, until, func(i int, t0 time.Time) sample {
			return sendQuery(r.client, srv.base, spec.next(i), t0)
		}, every)
	}()
	wg.Wait()
	elapsed := time.Since(t0)
	cpu = cpuTime() - cpu
	after, err := scrape(r.client, srv.base)
	if err != nil {
		srv.kill()
		return err
	}

	// Crash and recover: SIGKILL, restart on the same WAL and
	// checkpoint, then check every acknowledged write.
	killed := time.Now()
	srv.kill()
	r.client.CloseIdleConnections()
	srv, err = startSimqd(r.client, r.simqdBin, r.dir+"/simqd.log", args(walDir)...)
	if err != nil {
		return err
	}
	checkErr := r.checkDurable(srv.base, c, base)
	recovery := time.Since(killed)
	restarted, err := scrape(r.client, srv.base)
	srv.stop()
	if err != nil {
		return err
	}
	if checkErr != nil {
		r.mismatches++
		r.failed++
		r.note("acknowledged-write check failed: %v", checkErr)
	}
	r.mismatches += wrong
	r.note("ingest: %d writes (%d compactions, %d checkpoints), %d reads; recovery %.3fs replaying %g tx",
		len(writes), int(delta(before, after, "simq_compactions_total")), int(delta(before, after, "simq_checkpoints_total")),
		len(reads), recovery.Seconds(), restarted["simq_wal_replayed_tx_total"])
	samples := append(writes, reads...)
	r.recordOutcome(samples, elapsed, setups)
	if !r.trace {
		return nil
	}
	seen.observe(after)
	r.serverLayers(samples, before, after, seen)
	r.metrics["load.client_cpu_s"] = cpu
	r.metrics["op.recovery_s"] = recovery.Seconds()
	r.metrics["storage.replayed_tx"] = restarted["simq_wal_replayed_tx_total"]
	r.metrics["storage.replay_ms"] = restarted["simq_wal_replay_ms"]
	r.metrics["storage.wal_bytes_per_user_byte"] = ratio(delta(before, after, "simq_wal_bytes_total"), float64(c.bytes))
	var lag []float64
	for _, s := range writes {
		lag = append(lag, ms(s.lag))
	}
	r.metrics["load.lag_ms_p99"] = summarize(lag).tail
	return r.replayIngest(spec, len(writes), len(reads))
}

// writeLoop sends write i when it is due (open loop at ingestRate) and
// times it from that moment, so a stall also counts against the writes
// queued behind it. A checkpoint follows every ingestCheckpointEvery
// writes. It returns the samples and the number of wrong answers.
func (r *runner) writeLoop(c *churn, base string, t0, until time.Time) ([]sample, int) {
	var out []sample
	wrong := 0
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * time.Second / ingestRate)
		if !due.Before(until) {
			return out, wrong
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		w := c.plan(i)
		ids, count, err := w.send(r.client, base)
		s := sample{class: "write", start: due.Sub(t0), lat: time.Since(due), lag: sent.Sub(due), srvMS: -1, checked: true, err: err}
		if err == nil {
			if err := c.ack(w, ids, count); err != nil {
				s.err = err
				wrong++
			}
		}
		out = append(out, s)
		if (i+1)%ingestCheckpointEvery == 0 {
			if _, err := post(r.client, base+"/v1/checkpoint", nil); err != nil {
				out = append(out, sample{class: "write", err: fmt.Errorf("checkpoint: %w", err), checked: true})
			}
		}
	}
}

// checkDurable reads every row back after the restart: the base is
// intact, every acknowledged insert and update is visible with its
// sequence, and every acknowledged delete is gone.
func (r *runner) checkDurable(base string, c *churn, words []string) error {
	body, _ := json.Marshal(map[string]string{"query": "SELECT id, seq, k FROM items"})
	out, err := post(r.client, base+"/v1/query", body)
	if err != nil {
		return err
	}
	var resp queryResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return err
	}
	got := map[string]string{}
	baseSeen := 0
	for _, row := range resp.Rows {
		if len(row) != 3 {
			return fmt.Errorf("row %v", row)
		}
		if row[2] == "" {
			id, err := strconv.Atoi(row[0])
			if err != nil || id >= len(words) || words[id] != row[1] {
				return fmt.Errorf("base row %v changed", row)
			}
			baseSeen++
			continue
		}
		if _, dup := got[row[2]]; dup {
			return fmt.Errorf("key %s appears twice", row[2])
		}
		got[row[2]] = row[1]
	}
	if baseSeen != len(words) {
		return fmt.Errorf("%d base rows, want %d", baseSeen, len(words))
	}
	alive := 0
	for _, row := range c.rows {
		seq, ok := got[row.key]
		switch {
		case row.alive && !ok:
			return fmt.Errorf("acknowledged row %s lost", row.key)
		case row.alive && seq != row.seq:
			return fmt.Errorf("row %s reads %q, want %q", row.key, seq, row.seq)
		case !row.alive && ok:
			return fmt.Errorf("deleted row %s is back", row.key)
		}
		if row.alive {
			alive++
		}
	}
	if alive != len(got) {
		return fmt.Errorf("%d written rows visible, want %d", len(got), alive)
	}
	return nil
}

// shardedCatalog loads the base the way simqd -shards N does.
func shardedCatalog(file string) (*relation.Catalog, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	rel, err := relation.Load("items", f)
	f.Close()
	if err != nil {
		return nil, err
	}
	tuples := rel.Tuples()
	rows := make([]relation.InsertRow, len(tuples))
	for i, t := range tuples {
		rows[i] = relation.InsertRow{Seq: t.Seq, Vec: t.Vec, Attrs: t.Attrs}
	}
	sh := relation.NewSharded("items", ingestShards)
	sh.InsertBatch(rows)
	cat := relation.NewCatalog()
	cat.Add(sh)
	return cat, nil
}

// replayIngest replays the writes and reads of the HTTP pass in
// process against a store on a scratch directory with the same flush
// policy, reads interleaved with writes in the proportion the HTTP pass
// ran them. Two passes, each on a fresh store: untraced (allocation
// counts and the tracing-overhead baseline), then traced, with spans
// around Store.Commit, checkpoints and every engine statement.
func (r *runner) replayIngest(spec *readSpec, nWrites, nReads int) error {
	var commits []float64
	var allocBytes, allocs float64
	var first *replayer
	for pass := 0; pass < 2; pass++ {
		traced := pass == 1
		cat, err := shardedCatalog(spec.loads[0][len("items="):])
		if err != nil {
			return err
		}
		st, err := storage.OpenSegmented(filepath.Join(r.dir, fmt.Sprintf("replay%d.wal", pass)), cat, ingestShards)
		if err != nil {
			return err
		}
		st.SetSync(true)
		st.SetGroupCommit(true)
		eng, err := engineOver(cat)
		if err != nil {
			st.Close()
			return err
		}
		eng.SetStore(st)
		p, err := r.newReplayer(eng)
		if err == nil {
			err = p.warm(spec.warm)
		}
		if err != nil {
			st.Close()
			return err
		}
		eng.SetTracing(traced)
		c := &churn{seed: r.seed}
		read := 0
		body := func() (int, error) {
			ops := 0
			for i := 0; i < nWrites; i++ {
				w := c.plan(i)
				p.trace++
				var ids []int
				count := 0
				t := time.Now()
				if w.kind == "update" || w.kind == "delete" {
					res, err := p.eng.Execute(w.dml())
					if err != nil {
						return ops, err
					}
					if traced {
						root := r.addSpan(p.trace, -1, "engine.execute."+w.kind, 0, float64(time.Since(t))/1e3)
						r.addEngineTrace(p.trace, root, res.Trace)
					}
					count, _ = strconv.Atoi(res.Rows[0][0])
				} else {
					res, err := st.Commit(w.ops())
					if err != nil {
						return ops, err
					}
					took := time.Since(t)
					ids = res.InsertedIDs
					if traced {
						commits = append(commits, float64(took)/1e3)
						r.addSpan(p.trace, -1, "storage.commit", 0, float64(took)/1e3)
					}
				}
				if err := c.ack(w, ids, count); err != nil {
					return ops, err
				}
				ops++
				if (i+1)%ingestCheckpointEvery == 0 {
					t := time.Now()
					if _, err := st.Checkpoint(); err != nil {
						return ops, err
					}
					if traced {
						p.trace++
						r.addSpan(p.trace, -1, "storage.checkpoint", 0, float64(time.Since(t))/1e3)
					}
				}
				for ; read < (i+1)*nReads/max(1, nWrites); read++ {
					q := spec.next(read)
					if traced {
						_, err = p.traced(q)
					} else {
						err = p.timed(q)
					}
					if err != nil {
						return ops, err
					}
					ops++
				}
			}
			return ops, nil
		}
		if traced {
			_, err = body()
		} else {
			allocBytes, allocs, err = memDelta(body)
			first = p
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if traced {
			r.metrics["storage.commit_us_p50"] = summarize(commits).p50
			r.reportEngine(p.l, ms(first.untraced), allocBytes, allocs)
		}
	}
	return nil
}
