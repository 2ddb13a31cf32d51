package main

import (
	"net/http"
	"time"
)

// gaugeMax tracks the largest values of simqd's point-in-time gauges
// over a traced run, from /metrics scrapes taken between operations.
type gaugeMax struct {
	heap, goroutines, tombstones float64
	last                         time.Time
}

func (g *gaugeMax) observe(m map[string]float64) {
	g.heap = max(g.heap, m["simq_heap_alloc_bytes"])
	g.goroutines = max(g.goroutines, m["simq_goroutines"])
	g.tombstones = max(g.tombstones, m["simq_catalog_tombstones"])
}

// sampler returns a function that scrapes at most every 200ms. It runs
// on one of the load's own callers, so it adds no connection.
func (g *gaugeMax) sampler(client *http.Client, base string) func() {
	return func() {
		if time.Since(g.last) < 200*time.Millisecond {
			return
		}
		g.last = time.Now()
		if m, err := scrape(client, base); err == nil {
			g.observe(m)
		}
	}
}

// serverLayers derives the per-layer metrics visible from outside the
// server: client spans against the server's own elapsed_ms, and deltas
// of /metrics across the measured loop.
func (r *runner) serverLayers(samples []sample, before, after map[string]float64, seen *gaugeMax) {
	var self, client, server []float64
	var bytes, lag []float64
	for i, s := range samples {
		if s.err != nil {
			continue
		}
		bytes = append(bytes, float64(s.bytes))
		lag = append(lag, ms(s.lag))
		tr := r.addSpan(i, -1, "client."+s.class, float64(s.start)/1e3, float64(s.lat)/1e3)
		if s.srvMS < 0 {
			continue
		}
		r.addSpan(i, tr, "simqd.elapsed", 0, s.srvMS*1e3)
		client = append(client, ms(s.lat))
		server = append(server, s.srvMS)
		self = append(self, ms(s.lat)-s.srvMS)
	}
	ss := summarize(self)
	r.metrics["simqd.self_ms_p50"] = ss.p50
	r.metrics["simqd.self_ms_p99"] = ss.tail
	r.metrics["simqd.resp_bytes_per_op"] = mean(bytes)
	r.metrics["load.lag_ms_p99"] = summarize(lag).tail
	if len(client) > 0 {
		r.note("waterfall (mean ms per query): client %.4f = simqd.self %.4f + elapsed_ms %.4f",
			mean(client), mean(self), mean(server))
	}

	d := func(key string) float64 { return delta(before, after, key) }
	ops := float64(len(samples))
	hits, misses := d(`simq_plan_cache_total{event="hit"}`), d(`simq_plan_cache_total{event="miss"}`)
	r.metrics["query.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	r.metrics["query.plan_cache_evictions"] = d(`simq_plan_cache_total{event="evict"}`)
	r.metrics["query.replans_per_op"] = ratio(d("simq_replans_total"), ops)
	for _, k := range kernelLabels {
		r.metrics["kernel.dispatch."+k] = d(`simq_kernel_dispatch_total{kernel="` + k + `"}`)
	}

	r.metrics["relation.compactions"] = d("simq_compactions_total")
	r.metrics["relation.compaction_s"] = d("simq_compaction_seconds_sum")
	r.metrics["relation.tombstones_max"] = seen.tombstones
	r.metrics["relation.snapshot_epochs"] = d("simq_snapshot_epoch")

	commits := d("simq_store_commits_total")
	fsyncs := d("simq_wal_fsync_seconds_count")
	r.metrics["storage.fsyncs_per_commit"] = ratio(fsyncs, commits)
	r.metrics["storage.fsync_ms_mean"] = ratio(d("simq_wal_fsync_seconds_sum")*1e3, fsyncs)
	r.metrics["storage.group_commit_batch_mean"] = ratio(d("simq_group_commit_batch_sum"), d("simq_group_commit_batch_count"))
	r.metrics["storage.checkpoints"] = d("simq_checkpoints_total")
	r.metrics["storage.checkpoint_s"] = d("simq_checkpoint_seconds_sum")

	r.metrics["runtime.server_heap_bytes_max"] = seen.heap
	r.metrics["runtime.server_goroutines_max"] = seen.goroutines
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
