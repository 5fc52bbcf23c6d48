//go:build race

package catalog

// raceEnabled reports that this test binary was built with the race
// detector, which drops a share of sync.Pool puts on purpose.
const raceEnabled = true
