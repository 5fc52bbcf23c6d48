package exec

import (
	"testing"

	"aidb/internal/plan"
)

// scanFilterAllocCeiling caps the streaming executor's allocs/op on a
// 100k-row scan-filter whose result holds ~50k ids. Pages decode into
// typed vectors, the filter narrows a selection, and the result boxes a
// chunk's ids into one slab, so what is left is per-morsel and per-chunk
// machinery: measured 773 on this fixture (the page decoder allocates
// nothing per page), about half again as headroom.
// A breach means per-row allocation crept back into the pipeline.
const scanFilterAllocCeiling = 1500

func TestScanFilterAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes allocation counts")
	}
	p := mustPlan(t, benchCatalog(t, 100000), "SELECT id FROM users WHERE age > 40")
	ex := New(nil)
	ex.Parallelism = 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ex.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("scan-filter over 100k rows: %.0f allocs/op (ceiling %d)", allocs, scanFilterAllocCeiling)
	if allocs > scanFilterAllocCeiling {
		t.Fatalf("scan-filter allocs/op %.0f exceeds ceiling %d (streaming regression)", allocs, scanFilterAllocCeiling)
	}
}

// wideFilterAllocCeiling caps allocs/op for a filtered count over 100k
// rows of the five-column wide table. The plan reads one narrow column,
// so nothing per row may allocate: not the four columns it does not read,
// not the bound predicate. What is left is per-morsel and per-chunk
// machinery: measured 873, under twice that.
const wideFilterAllocCeiling = 1700

func TestWideFilterAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes allocation counts")
	}
	p := plan.OptimizeFilters(mustPlan(t, wideCatalog(t, 100000), "SELECT count(*) FROM wide WHERE age < 30"))
	ex := New(nil)
	ex.Parallelism = 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ex.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("filtered count over 100k wide rows: %.0f allocs/op (ceiling %d)", allocs, wideFilterAllocCeiling)
	if allocs > wideFilterAllocCeiling {
		t.Fatalf("wide filtered count allocs/op %.0f exceeds ceiling %d: the scan decodes columns the plan does not read, or the filter allocates per row", allocs, wideFilterAllocCeiling)
	}
}
