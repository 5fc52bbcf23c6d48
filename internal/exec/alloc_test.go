package exec

import "testing"

// scanFilterAllocCeiling caps the streaming executor's allocs/op on a
// 100k-row scan-filter. One boxed int64 per wide value is the floor
// (catalog.Value is an interface; ids box, ages under 256 do not), and
// chunk machinery adds a few hundred on top: measured ~100k on this
// fixture, plus ~30% headroom. A breach means per-row allocation crept
// back into the pipeline.
const scanFilterAllocCeiling = 130000

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
