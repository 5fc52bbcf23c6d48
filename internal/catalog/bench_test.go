package catalog

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"aidb/internal/storage"
)

// BenchmarkDecodePage decodes a 100k-row table shaped like the load
// harness's users (id INT, age INT, city TEXT, score FLOAT, churned INT;
// three-byte cities) page by page into reused vectors, for the column
// sets the analytic statements read, and reports ns/row; for age and
// score also two scans at once a morsel at a time. The pool holds
// 64 of the table's pages, so most are read past it, as a server's
// scans of a table larger than its pool read them.
func BenchmarkDecodePage(b *testing.B) {
	pool, err := storage.NewBufferPool(storage.NewMemDisk(), 64)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := New(pool).CreateTable("users", Schema{Columns: []Column{
		{Name: "id", Type: Int64}, {Name: "age", Type: Int64}, {Name: "city", Type: String},
		{Name: "score", Type: Float64}, {Name: "churned", Type: Int64},
	}})
	if err != nil {
		b.Fatal(err)
	}
	const rows = 100000
	cities := []string{"ams", "ber", "cph", "dub", "edi", "fra", "gva", "hel"}
	batch := make([]Row, 0, 1000)
	for i := 0; i < rows; i++ {
		x := uint64(i) * 0x9E3779B97F4A7C15
		batch = append(batch, Row{int64(i), int64(18 + x%60), cities[x>>8%8], float64(x>>16%10000) / 100, int64(x >> 32 % 2)})
		if len(batch) == cap(batch) {
			if err := tab.InsertRows(batch, func(int, storage.RecordID) {}); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	pages := tab.PageIDs()
	for _, set := range [][]int{{1, 3}, {0, 1}, {0, 1, 3}, {2, 3}} {
		name := ""
		for _, c := range set {
			name += "," + tab.Schema.Columns[c].Name
		}
		vectors := func() ([]Vector, []*Vector) {
			vs := make([]Vector, 5)
			cols := make([]*Vector, 5)
			for _, c := range set {
				cols[c] = &vs[c]
			}
			return vs, cols
		}
		b.Run(fmt.Sprintf("cols=%s", name[1:]), func(b *testing.B) {
			vs, cols := vectors()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := range pages {
					for _, c := range set {
						vs[c].Reset()
					}
					if _, _, err := tab.DecodePages(pages[p:p+1], cols, nil, 1); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			b.ReportMetric(float64(len(pages)), "pages")
		})
		if len(set) != 2 || set[0] != 1 {
			continue
		}
		// Two scans of the table at once, each a four-page morsel per
		// call as a server's scans read it, so the latches they share
		// show: ns/row is wall time over the rows both decode.
		b.Run(fmt.Sprintf("cols=%s/morsels=4/goroutines=2", name[1:]), func(b *testing.B) {
			var wg sync.WaitGroup
			errs := make(chan error, 2)
			b.ResetTimer()
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					vs, cols := vectors()
					for i := 0; i < b.N; i++ {
						for m := 0; m < len(pages); m += 4 {
							for _, c := range set {
								vs[c].Reset()
							}
							if _, _, err := tab.DecodePages(pages[m:min(m+4, len(pages))], cols, nil, math.MaxInt); err != nil {
								errs <- err
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*rows), "ns/row")
		})
	}
}
