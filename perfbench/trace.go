package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
)

// span is one timed interval the benchmark recorded around a call into
// a layer, or one operator span of the engine's Result.Trace nested
// under it. Spans of one operation share trace; parent is the index of
// the enclosing span in the run's span list (-1 at the root).
type span struct {
	Trace   int     `json:"trace"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us,omitempty"`
	DurUS   float64 `json:"dur_us"`
}

// addSpan appends a span and returns its index, for children to name.
func (r *runner) addSpan(trace, parent int, name string, startUS, durUS float64) int {
	r.spans = append(r.spans, span{Trace: trace, Parent: parent, Name: name, StartUS: startUS, DurUS: durUS})
	return len(r.spans) - 1
}

// addEngineTrace nests an engine span tree under parent.
func (r *runner) addEngineTrace(trace, parent int, s *obs.Span) {
	if s == nil {
		return
	}
	idx := r.addSpan(trace, parent, "exec."+s.Op, 0, float64(s.WallNS)/1e3)
	for _, c := range s.Children {
		r.addEngineTrace(trace, idx, c)
	}
}

// writeSpans writes the run's spans, one JSON object a line, to
// .bench_build/perfbench/trace-<workload>-<seed>.json.
func (r *runner) writeSpans() error {
	path := filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("trace-%s-%d.json", r.workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	r.note("spans: %d written to %s", len(r.spans), path)
	return f.Close()
}

// opFamily maps an engine span label (as EXPLAIN renders it) to the
// operator family its self time is reported under.
func opFamily(label string) string {
	name, _, _ := strings.Cut(label, "(")
	switch name {
	case "Scan", "MultiScan", "ShardScan":
		return "scan"
	case "IndexRange":
		return "index_range"
	case "NearestK", "ShardNearestK":
		return "nearest"
	case "VecNearestK", "VecRange", "ShardVecNearestK":
		return "vec"
	case "Filter":
		return "filter"
	case "NestedLoopJoin", "IndexJoin", "PartitionJoin":
		return "join"
	case "GatherMerge":
		return "gather"
	case "Parallel":
		return "parallel"
	case "Project", "Limit":
		return "project_limit"
	case "OrderByDist":
		return "orderby"
	}
	return "other"
}

// selfTimes adds each span's self time (its wall time less its
// children's, floored at zero where parallel children overlap) to the
// span's operator family, in ms, and returns the total rows and batches
// the operators emitted.
func selfTimes(s *obs.Span, into map[string]float64) (rows, batches int64) {
	if s == nil {
		return 0, 0
	}
	child := int64(0)
	for _, c := range s.Children {
		child += c.WallNS
		r, b := selfTimes(c, into)
		rows += r
		batches += b
	}
	into[opFamily(s.Op)] += float64(max(0, s.WallNS-child)) / 1e6
	return rows + s.Rows, batches + s.Batches
}
