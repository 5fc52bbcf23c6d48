package core

import (
	"testing"
	"time"
)

func TestStartStopTelemetry(t *testing.T) {
	db := Open()
	db.StartTelemetry(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for db.Series().Windows() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if w := db.Series().Windows(); w < 3 {
		t.Fatalf("sampled %d windows, want >= 3", w)
	}
	if db.Series().Running() {
		t.Error("sampler running after Close")
	}
	// Closing again, or closing a DB that never started the sampler, is fine.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Open().Close(); err != nil {
		t.Fatal(err)
	}
}
