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
func zoneCell(cell Value, c ZoneCond) uint8 {
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
	c := ZoneCond{Col: []int{0, 1, 3}[r.Intn(3)], Accept: uint8(1 + r.Intn(6))}
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
