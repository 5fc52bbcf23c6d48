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

// mix is splitmix64's finalizer, for the write benchmarks' values.
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// account is row id of a table shaped like the load harness's accounts
// (id INT, owner TEXT, balance INT): 977 owners of two to four bytes,
// about 160 of them on a page.
func account(id, version uint64) Row {
	return Row{int64(id), fmt.Sprint("o", mix(id*0x9E3779B97F4A7C15)%977), int64(mix(id^version<<40) % 10000)}
}

// BenchmarkWrite times the heap's write path. load/users and
// load/accounts insert a table in 500-row InsertRows calls, as a
// script's INSERT ... VALUES statements do: users is BenchmarkDecodePage's
// table, its TEXT eight cities, and accounts' TEXT is 977 owners. dml
// runs, on a 20 000-row accounts table, the writes of the load harness's
// mixed_rw workload in its proportions — an UPDATE (DeleteIf, then
// Insert of the changed row), then an INSERT and a DELETE, of random
// rows — and reports ns per statement.
func BenchmarkWrite(b *testing.B) {
	accounts := Schema{Columns: []Column{{Name: "id", Type: Int64}, {Name: "owner", Type: String}, {Name: "balance", Type: Int64}}}
	load := func(b *testing.B, schema Schema, rows int, row func(i uint64) Row) {
		batch := make([]Row, 0, 500)
		for i := 0; i < b.N; i++ {
			tab, err := NewMem().CreateTable("t", schema)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < rows; j++ {
				if batch = append(batch, row(uint64(j))); len(batch) == cap(batch) || j == rows-1 {
					if err := tab.InsertRows(batch, func(int, storage.RecordID) {}); err != nil {
						b.Fatal(err)
					}
					batch = batch[:0]
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
	}
	b.Run("load/users", func(b *testing.B) {
		cities := []string{"ams", "ber", "cph", "dub", "edi", "fra", "gva", "hel"}
		load(b, Schema{Columns: []Column{
			{Name: "id", Type: Int64}, {Name: "age", Type: Int64}, {Name: "city", Type: String},
			{Name: "score", Type: Float64}, {Name: "churned", Type: Int64},
		}}, 100000, func(i uint64) Row {
			x := i * 0x9E3779B97F4A7C15
			return Row{int64(i), int64(18 + x%60), cities[x>>8%8], float64(x>>16%10000) / 100, int64(x >> 32 % 2)}
		})
	})
	b.Run("load/accounts", func(b *testing.B) {
		load(b, accounts, 20000, func(i uint64) Row { return account(i, 0) })
	})
	b.Run("dml", func(b *testing.B) {
		tab, err := NewMem().CreateTable("accounts", accounts)
		if err != nil {
			b.Fatal(err)
		}
		type live struct {
			rid storage.RecordID
			row Row
		}
		var rows []live
		insert := func(row Row) {
			rid, err := tab.Insert(row)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, live{rid, row})
		}
		for id := uint64(0); id < 20000; id++ {
			insert(account(id, 0))
		}
		next, r := uint64(20000), uint64(1)
		pick := func() int { r++; return int(mix(r) % uint64(len(rows))) }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			switch i % 4 {
			case 0, 1: // UPDATE accounts SET balance = ... WHERE id = ...
				k := pick()
				old := rows[k]
				if err := tab.DeleteIf(old.rid, old.row); err != nil {
					b.Fatal(err)
				}
				rows[k] = rows[len(rows)-1]
				rows = rows[:len(rows)-1]
				insert(account(uint64(old.row[0].(int64)), uint64(i)))
			case 2: // INSERT
				insert(account(next, 0))
				next++
			default: // DELETE
				k := pick()
				if err := tab.Delete(rows[k].rid); err != nil {
					b.Fatal(err)
				}
				rows[k] = rows[len(rows)-1]
				rows = rows[:len(rows)-1]
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/stmt")
	})
}
