package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	// E1..E33 with E31 retired (its claim is TestScanFilterAllocCeiling
	// in internal/exec; ids are not renumbered).
	if len(ids) != 32 {
		t.Fatalf("registered %d experiments, want 32: %v", len(ids), ids)
	}
	if ids[0] != "E1" || ids[31] != "E33" {
		t.Errorf("ordering wrong: %v", ids)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("E99", 1); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestAllExperimentShapesHold is the headline reproduction test: every
// experiment in DESIGN.md's matrix must regenerate its claimed shape.
func TestAllExperimentShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment matrix skipped in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, 20260705)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			if !tab.Holds {
				t.Errorf("%s: claimed shape does not hold.\n%s", id, tab.String())
			}
		})
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "demo", Claim: "c",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Holds:  true,
	}
	out := tab.String()
	for _, want := range []string{"EX", "demo", "a", "bb", "HOLDS"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Run("E18", 7)
	b, _ := Run("E18", 7)
	if a.String() != b.String() {
		t.Error("experiments must be deterministic for a fixed seed")
	}
}
