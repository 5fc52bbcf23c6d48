package catalog

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aidb/internal/storage"
)

// zoneInts and zoneFloats are the cells and constants TestZonesNeverPruneAMatch
// draws from: the int64 extremes, integers around 2^53 where float64
// stops telling neighbours apart, NaN, ±Inf and ±0, beside small
// values most rows take.
var (
	zoneInts = []int64{math.MinInt64, math.MinInt64 + 1, -1 << 53, -(1 << 53) - 1, -1, 0, 1, 7,
		1<<53 - 1, 1 << 53, 1<<53 + 1, math.MaxInt64 - 1, math.MaxInt64}
	zoneFloats = []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, -1.5, 0.5, 7,
		1 << 53, 1<<53 + 2, -(1 << 53), 9.3e18, -9.3e18, math.MaxFloat64}
)

// zoneCell compares a cell with a condition's constant as the
// executor's filters do: as int64s when both are INTs, else as float64s,
// with a NaN on either side comparing equal; it returns the outcome's
// bit (1 below, 2 equal, 4 above).
func zoneCell(cell Value, c ZoneCond) CmpOp {
	if x, ok := cell.(int64); ok && c.Int {
		switch {
		case x < c.IntK:
			return 1
		case x > c.IntK:
			return 4
		}
		return 2
	}
	var x float64
	switch v := cell.(type) {
	case int64:
		x = float64(v)
	case float64:
		x = v
	}
	k := c.FloatK
	if c.Int {
		k = float64(c.IntK)
	}
	switch {
	case x < k:
		return 1
	case x > k:
		return 4
	}
	return 2
}

func zoneRow(r *rand.Rand, n int) Row {
	i := int64(r.Intn(1000)) - 500
	if r.Intn(4) == 0 {
		i = zoneInts[r.Intn(len(zoneInts))]
	}
	f := float64(r.Intn(1000)) / 4
	if r.Intn(4) == 0 {
		f = zoneFloats[r.Intn(len(zoneFloats))]
	}
	// Rows of a run share a band of j, so pages differ in their bounds.
	j := int64(n/150*100 + r.Intn(100))
	return Row{i, f, strings.Repeat("s", r.Intn(20)), j}
}

func zoneCond(r *rand.Rand) ZoneCond {
	c := ZoneCond{Col: []int{0, 1, 3}[r.Intn(3)], Accept: CmpOp(1 + r.Intn(6))}
	switch r.Intn(4) {
	case 0:
		c.Int, c.IntK = true, zoneInts[r.Intn(len(zoneInts))]
	case 1:
		c.FloatK = zoneFloats[r.Intn(len(zoneFloats))]
	case 2:
		c.Int, c.IntK = true, int64(r.Intn(1500))-500
	default:
		c.FloatK = float64(r.Intn(2000))/4 - 250
	}
	return c
}

// TestZonesNeverPruneAMatch holds PagesFor to its contract on tables
// taken through bulk and one-row inserts, deletes and update churn:
// every live row that meets all the conditions lies on a page it
// returns, the pages it leaves out hold the live rows it reports, and a
// table loaded a row at a time has the same zones as one loaded in
// batches.
func TestZonesNeverPruneAMatch(t *testing.T) {
	schema := Schema{Columns: []Column{{Name: "i", Type: Int64}, {Name: "f", Type: Float64}, {Name: "s", Type: String}, {Name: "j", Type: Int64}}}
	pruned := 0
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		bulk, _ := NewMem().CreateTable("t", schema)
		single, _ := NewMem().CreateTable("t", schema)
		loaded := 0
		for round := 0; round < 8; round++ {
			rows := make([]Row, 1+r.Intn(400))
			for i := range rows {
				rows[i] = zoneRow(r, loaded+i)
			}
			loaded += len(rows)
			if err := bulk.InsertRows(rows, func(int, storage.RecordID) {}); err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				if _, err := single.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			// Delete some rows and replace some, as UPDATE does, in both.
			var rids []storage.RecordID
			vs, cols := bulk.vectors()
			if _, _, err := bulk.DecodePages(bulk.PageIDs(), cols, &rids, math.MaxInt); err != nil {
				t.Fatal(err)
			}
			var churn []Row
			for i, rid := range rids {
				switch r.Intn(6) {
				case 0:
				case 1:
					churn = append(churn, zoneRow(r, r.Intn(loaded)))
				default:
					continue
				}
				for _, tab := range []*Table{bulk, single} {
					if err := tab.DeleteIf(rid, bulk.row(vs, i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := bulk.InsertRows(churn, func(int, storage.RecordID) {}); err != nil {
				t.Fatal(err)
			}
			for _, row := range churn {
				if _, err := single.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(bulk.zones.w, single.zones.w) {
				t.Fatalf("seed %d round %d: zones differ between batch and one-row loads", seed, round)
			}
			pruned += checkZones(t, bulk, r)
		}
	}
	if pruned == 0 {
		t.Fatal("no condition pruned a page: the test checks nothing")
	}
}

// checkZones checks PagesFor over random conditions against the table's
// rows and returns how many pages it left out.
func checkZones(t *testing.T, tab *Table, r *rand.Rand) int {
	t.Helper()
	var rids []storage.RecordID
	vs, cols := tab.vectors()
	if _, _, err := tab.DecodePages(tab.PageIDs(), cols, &rids, math.MaxInt); err != nil {
		t.Fatal(err)
	}
	onPage := map[storage.PageID]int{}
	for _, rid := range rids {
		onPage[rid.Page]++
	}
	pruned := 0
	for q := 0; q < 40; q++ {
		conds := make([]ZoneCond, 1+r.Intn(2))
		for i := range conds {
			conds[i] = zoneCond(r)
		}
		ps := tab.PagesFor(conds)
		kept := map[storage.PageID]bool{}
		for _, id := range ps.Pages {
			kept[id] = true
		}
		for i, rid := range rids {
			row := tab.row(vs, i)
			match := true
			for _, c := range conds {
				match = match && c.Accept&zoneCell(row[c.Col], c) != 0
			}
			if match && !kept[rid.Page] {
				t.Fatalf("conds %+v: row %v on page %d matches, but the page was pruned", conds, row, rid.Page)
			}
		}
		rows := 0
		for id, n := range onPage {
			if !kept[id] {
				rows += n
			}
		}
		if ps.PrunedRows != rows || ps.Pruned+len(ps.Pages) != len(tab.PageIDs()) {
			t.Fatalf("conds %+v: %d pages pruned holding %d rows, want %d pages holding %d", conds, ps.Pruned, ps.PrunedRows, len(tab.PageIDs())-len(ps.Pages), rows)
		}
		pruned += ps.Pruned
	}
	return pruned
}

// TestKeySetZonesNeverPruneAKey holds a key-set ZoneCond — a hash join's
// build keys restricting its probe's pages — to its contract: every live
// row whose key is in the set lies on a page PagesFor keeps, the pages
// left out hold the live rows it reports, and an empty set keeps no
// page. Keys run clustered (ascending with the rows), shuffled, and out
// to the int64 extremes, and deletes leave zones wider than their live
// rows. Sets are drawn from the keys present — each page's least and
// greatest among them — keys absent, the extremes and nothing; on a
// FLOAT column a key set keeps every page.
func TestKeySetZonesNeverPruneAKey(t *testing.T) {
	schema := Schema{Columns: []Column{{Name: "k", Type: Int64}, {Name: "f", Type: Float64}}}
	layouts := map[string]func(r *rand.Rand, i int) int64{
		"clustered": func(r *rand.Rand, i int) int64 { return int64(i) * 3 },
		"shuffled":  func(r *rand.Rand, i int) int64 { return int64(r.Intn(5000)) },
		"extremes": func(r *rand.Rand, i int) int64 {
			if r.Intn(3) == 0 {
				return zoneInts[r.Intn(len(zoneInts))]
			}
			return int64(i) - 1000
		},
	}
	pruned := 0
	for name, key := range layouts {
		for seed := int64(0); seed < 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			tab, _ := NewMem().CreateTable("t", schema)
			rows := make([]Row, 3000)
			for i := range rows {
				rows[i] = Row{key(r, i), float64(i)}
			}
			if err := tab.InsertRows(rows, func(int, storage.RecordID) {}); err != nil {
				t.Fatal(err)
			}
			live := func() ([]storage.RecordID, []Row) {
				var rids []storage.RecordID
				vs, cols := tab.vectors()
				if _, _, err := tab.DecodePages(tab.PageIDs(), cols, &rids, math.MaxInt); err != nil {
					t.Fatal(err)
				}
				out := make([]Row, len(rids))
				for i := range rids {
					out[i] = tab.row(vs, i)
				}
				return rids, out
			}
			// Delete about half the rows: the zones keep their bounds.
			rids, all := live()
			for i, rid := range rids {
				if r.Intn(2) == 0 {
					if err := tab.DeleteIf(rid, all[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			rids, all = live()
			bounds := map[storage.PageID][2]int64{}
			for i, rid := range rids {
				k := all[i][0].(int64)
				b, ok := bounds[rid.Page]
				if !ok {
					b = [2]int64{k, k}
				}
				bounds[rid.Page] = [2]int64{min(b[0], k), max(b[1], k)}
			}
			for q := 0; q < 60; q++ {
				set := map[int64]bool{}
				switch q % 4 {
				case 0: // live keys
					for n := r.Intn(8); n > 0; n-- {
						set[all[r.Intn(len(all))][0].(int64)] = true
					}
				case 1: // a page's least or greatest live key, alone
					for _, b := range bounds {
						set[b[r.Intn(2)]] = true
						break
					}
				case 2: // keys absent or at the extremes, beside live ones
					for n := r.Intn(6); n > 0; n-- {
						set[zoneInts[r.Intn(len(zoneInts))]] = true
						set[all[r.Intn(len(all))][0].(int64)+1] = true
					}
				}
				var keys []int64
				for k := range set {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				for col := 0; col < 2; col++ {
					c := ZoneCond{Col: col, In: true, Keys: keys}
					ps := tab.PagesFor([]ZoneCond{c})
					kept := map[storage.PageID]bool{}
					for _, id := range ps.Pages {
						kept[id] = true
					}
					rowsOut := 0
					for i, rid := range rids {
						if !kept[rid.Page] {
							rowsOut++
							if col == 0 && set[all[i][0].(int64)] {
								t.Fatalf("%s seed %d: keys %v: row %v on page %d holds a key, but the page was pruned", name, seed, keys, all[i], rid.Page)
							}
						}
					}
					if ps.PrunedRows != rowsOut || ps.Pruned+len(ps.Pages) != len(tab.PageIDs()) {
						t.Fatalf("%s seed %d: keys %v: %d pages pruned holding %d rows, want %d holding %d", name, seed, keys, ps.Pruned, ps.PrunedRows, len(tab.PageIDs())-len(ps.Pages), rowsOut)
					}
					if empty := len(tab.PageIDs()) - len(bounds); col == 1 && ps.Pruned != empty {
						t.Fatalf("%s seed %d: a key set on a FLOAT column pruned %d pages, want the %d without live rows", name, seed, ps.Pruned, empty)
					}
					if col == 0 && len(keys) == 0 && len(ps.Pages) != 0 {
						t.Fatalf("%s seed %d: an empty key set kept %d pages", name, seed, len(ps.Pages))
					}
					if col == 0 {
						pruned += ps.Pruned
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no key set pruned a page: the test checks nothing")
	}
}
