package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/storage"
)

// codedCatalog holds t (id INT, s TEXT, g TEXT) — s a string of its own
// on most rows, more than 65 536 of them, g one of a dozen short strings,
// the empty one and prefixes of others among them — with a seventh of
// its rows deleted and new rows put in their slots, so its pages have
// dead slots and have been laid out again; and u (id INT, s TEXT), whose
// strings meet t's s once, several times or not at all.
func codedCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.NewMem()
	tab, err := c.CreateTable("t", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: catalog.Int64}, {Name: "s", Type: catalog.String}, {Name: "g", Type: catalog.String},
	}})
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.CreateTable("u", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: catalog.Int64}, {Name: "s", Type: catalog.String},
	}})
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"", "a", "ab", "abc", "b", "ba", "c", "ca", "cab", "d", "dd", "ddd"}
	const rows = 72000
	var rids []storage.RecordID
	batch := make([]catalog.Row, 0, 1000)
	for i := 0; i < rows; i++ {
		batch = append(batch, catalog.Row{int64(i), fmt.Sprintf("k%06d", i), groups[(i*7)%len(groups)]})
		if len(batch) == cap(batch) {
			if err := tab.InsertRows(batch, func(_ int, rid storage.RecordID) { rids = append(rids, rid) }); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	for i := 0; i < len(rids); i += 7 {
		if err := tab.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	// New rows, some repeating a string still in the table, some longer
	// than the rows they replace, so pages are laid out again.
	for i := 0; i < rows/14; i++ {
		s := fmt.Sprintf("k%06d", (i*13)%rows)
		if i%3 == 0 {
			s = fmt.Sprintf("new-%d-%s", i, s)
		}
		if _, err := tab.Insert(catalog.Row{int64(rows + i), s, groups[i%len(groups)]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		s := fmt.Sprintf("k%06d", (i*31)%(2*rows)) // half of them in t
		if i%5 == 0 {
			s = fmt.Sprintf("k%06d", i%50) // the same few, again and again
		}
		if _, err := u.Insert(catalog.Row{int64(i), s}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestTextKeyCodesMatchStrings: GROUP BY, DISTINCT and a TEXT equi-join,
// whose single TEXT key the key map numbers by dictionary code, give
// what numbering each row's string gives — serially with the default
// chunks, with chunks of more than 65 536 dictionary entries, and at
// Parallelism 2. And a key vector whose strings were gathered, refilled
// or appended to after a page decode is numbered by its strings: its
// codes, stale, are never used.
func TestTextKeyCodesMatchStrings(t *testing.T) {
	c := codedCatalog(t)
	tab, err := c.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	trows := heapRows(t, tab)
	utab, err := c.Table("u")
	if err != nil {
		t.Fatal(err)
	}
	urows := heapRows(t, utab)

	// What numbering each row's string gives, in scan order.
	groupBy := func(col int) []catalog.Row {
		var out []catalog.Row
		at := map[string]int{}
		for _, r := range trows {
			s := r[col].(string)
			if i, ok := at[s]; ok {
				out[i][1] = out[i][1].(int64) + 1
				continue
			}
			at[s] = len(out)
			out = append(out, catalog.Row{s, int64(1)})
		}
		return out
	}
	distinct := func(col int) []catalog.Row {
		var out []catalog.Row
		for _, r := range groupBy(col) {
			out = append(out, catalog.Row{r[0]})
		}
		return out
	}
	uids := map[string][]catalog.Value{}
	for _, b := range urows {
		uids[b[1].(string)] = append(uids[b[1].(string)], b[0])
	}
	var join []catalog.Row
	for _, a := range trows {
		for _, id := range uids[a[1].(string)] {
			join = append(join, catalog.Row{a[0], id})
		}
	}
	if len(join) < 1000 {
		t.Fatalf("weak coverage: the join has %d rows", len(join))
	}
	for _, q := range []struct {
		sql     string
		want    []catalog.Row
		ordered bool
	}{
		{"SELECT s, count(*) FROM t GROUP BY s", groupBy(1), true},
		{"SELECT g, count(*) FROM t GROUP BY g", groupBy(2), true},
		{"SELECT DISTINCT s FROM t", distinct(1), true},
		{"SELECT DISTINCT g FROM t", distinct(2), true},
		{"SELECT t.id, u.id FROM t JOIN u ON t.s = u.s", join, false},
		{"SELECT t.id, u.id FROM u JOIN t ON u.s = t.s", join, false},
	} {
		p := mustPlan(t, c, q.sql)
		big := New(nil)
		big.Parallelism, big.MorselSize, big.ScanMorselPages = 1, 1<<17, 1<<12
		for _, ex := range []struct {
			name string
			ex   *Executor
		}{{"serial", New(nil)}, {"big chunks", big}, {"parallel", parallelExec(2)}} {
			if ex.name == "serial" {
				ex.ex.Parallelism = 1
			}
			res, err := ex.ex.Run(p)
			if err != nil {
				t.Fatalf("%s, %s: %v", q.sql, ex.name, err)
			}
			got, want := res.Rows, q.want
			if !q.ordered {
				got, want = sortedPairs(got), sortedPairs(want)
			}
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("%s, %s: %d rows differ from the %d each row's string gives", q.sql, ex.name, len(got), len(want))
			}
		}
	}

	// One vector of every page's s, as a scan decodes it: its codes run
	// past what two bytes hold.
	var v catalog.Vector
	if _, _, err := tab.DecodePages(tab.PageIDs(), []*catalog.Vector{nil, &v, nil}, nil, math.MaxInt); err != nil {
		t.Fatal(err)
	}
	if !v.Coded() || len(v.Dict) <= 1<<16 || slices.Max(v.Codes) < 1<<16 {
		t.Fatalf("%d strings, %d codes, %d entries: want codes past 65 535", len(v.S), len(v.Codes), len(v.Dict))
	}
	for i, s := range v.S {
		if v.Dict[v.Codes[i]] != s {
			t.Fatalf("row %d: code %d is %q, the string %q", i, v.Codes[i], v.Dict[v.Codes[i]], s)
		}
	}
	key := []bound{{k: kString, col: 0}}
	// ids numbers sel's rows of the one-column chunk of vector x, first
	// with add, then, in a map holding half of the keys, without.
	ids := func(x *vec, sel []int32) (added, probed []int32) {
		ch := &Chunk{n: len(x.S), sel: sel, cols: []*vec{x}}
		m := newKeyMap(keyString, false)
		added, err := m.ids(ch, sel, key, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		half := newKeyMap(keyString, true)
		if _, err := half.ids(ch, sel[:len(sel)/2], key, true, nil); err != nil {
			t.Fatal(err)
		}
		probed, err = half.ids(ch, sel, key, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return added, probed
	}
	// byString is ids with x's strings only, uncoded, as each row's
	// string numbers them.
	byString := func(x *vec, sel []int32) ([]int32, []int32) {
		y := &vec{k: kString}
		y.S = slices.Clone(x.S)
		return ids(y, sel)
	}
	same := func(how string, x *vec, sel []int32) {
		t.Helper()
		a, p := ids(x, sel)
		wa, wp := byString(x, sel)
		if !slices.Equal(a, wa) || !slices.Equal(p, wp) {
			t.Fatalf("%s: ids differ from those of the strings", how)
		}
	}
	coded := &vec{Vector: v, k: kString}
	all := ascending(len(v.S))
	every3 := slices.DeleteFunc(slices.Clone(all), func(r int32) bool { return r%3 == 0 })
	slices.Reverse(every3)
	same("coded, every row", coded, all)
	same("coded, a third dropped, reversed", coded, every3)

	// Decoded from pages, then reset and gathered into: S alone.
	g := &vec{k: kString}
	if _, _, err := tab.DecodePages(tab.PageIDs()[5:7], []*catalog.Vector{nil, &g.Vector, nil}, nil, math.MaxInt); err != nil {
		t.Fatal(err)
	}
	g.reset(kString)
	g.gather(coded, every3)
	if g.Coded() {
		t.Fatal("a gathered vector is coded")
	}
	same("gathered", g, ascending(len(g.S)))

	// Refilled by record id: S alone.
	var recs []storage.RecordID
	if _, _, err := tab.DecodePages(tab.PageIDs()[:3], make([]*catalog.Vector, 3), &recs, math.MaxInt); err != nil {
		t.Fatal(err)
	}
	r := &vec{k: kString}
	if _, _, err := tab.DecodePages(tab.PageIDs()[3:5], []*catalog.Vector{nil, &r.Vector, nil}, nil, math.MaxInt); err != nil {
		t.Fatal(err)
	}
	r.reset(kString)
	if _, err := tab.DecodeRecords(recs, []*catalog.Vector{nil, &r.Vector, nil}, nil); err != nil {
		t.Fatal(err)
	}
	if r.Coded() || len(r.S) != len(recs) {
		t.Fatalf("a vector refilled by record id: %d strings, %d codes", len(r.S), len(r.Codes))
	}
	same("refilled by record id", r, ascending(len(r.S)))

	// Decoded from pages, then appended to: the codes cover a prefix.
	a := &vec{k: kString}
	if _, _, err := tab.DecodePages(tab.PageIDs()[:2], []*catalog.Vector{nil, &a.Vector, nil}, nil, math.MaxInt); err != nil {
		t.Fatal(err)
	}
	a.gather(coded, every3[:500])
	for i := range a.Codes {
		a.Codes[i] = int32(i % 2) // poisoned: no row may be numbered by them
	}
	if a.Coded() {
		t.Fatal("a vector appended to after decode is coded")
	}
	same("appended to after decode, codes poisoned", a, ascending(len(a.S)))
}

// sortedPairs is rows of two INT columns, sorted.
func sortedPairs(rows []catalog.Row) []catalog.Row {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, func(a, b catalog.Row) int {
		if c := cmp.Compare(a[0].(int64), b[0].(int64)); c != 0 {
			return c
		}
		return cmp.Compare(a[1].(int64), b[1].(int64))
	})
	return rows
}
