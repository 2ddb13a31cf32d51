package tsdb

import (
	"testing"

	"repro/internal/stock"
)

// BenchmarkTSDBBuild times DB.Build — inserting every feature point
// into a fresh R*-tree — over 10k random walks of length 128 with
// k = 3 (a 6-d polar feature space, 32 entries per node), the shape of
// the perfbench series workload at a fifth of its size.
func BenchmarkTSDBBuild(b *testing.B) {
	db, err := New(3)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range stock.Walks(1, 10000, 128) {
		if _, err := db.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
