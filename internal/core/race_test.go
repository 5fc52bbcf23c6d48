//go:build race

package core

// raceEnabled reports that this test binary was built with the race
// detector, whose shadow allocations inflate allocs/op.
const raceEnabled = true
