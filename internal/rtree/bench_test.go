package rtree

import "testing"

// BenchmarkRTreeInsert times building a tree by inserting 10k uniform
// 6-d points one by one (32 entries per node); one op is a whole
// build, so ns/op and allocs/op do not depend on b.N.
func BenchmarkRTreeInsert(b *testing.B) {
	pts := randPoints(1, 10000, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := New(6, 32)
		if err != nil {
			b.Fatal(err)
		}
		for id, p := range pts {
			if err := tr.Insert(id, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
