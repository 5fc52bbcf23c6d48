package obs

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestWritePromToSanitizesDottedNames is the regression round-trip for
// the Prometheus exposition: every sample line and every # TYPE family
// in the rendered text must use legal sanitized names, exactly one TYPE
// line per family, with the sample values matching the live registry.
func TestWritePromToSanitizesDottedNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("exec.queries").Add(7)
	reg.Gauge("proc.heap_alloc.bytes").Set(12.5)
	reg.GaugeFunc("admission.queue_depth", func() float64 { return 3 })
	reg.Histogram("exec.latency_ns", nil).Observe(1500)

	var buf bytes.Buffer
	if _, err := reg.WritePromTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	legal := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	types := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if types[fields[2]] {
				t.Fatalf("duplicate # TYPE for family %s:\n%s", fields[2], out)
			}
			types[fields[2]] = true
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !legal.MatchString(name) {
			t.Errorf("illegal sample name %q in line %q", name, line)
		}
		if strings.Contains(name, ".") {
			t.Errorf("unsanitized dotted name leaked: %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE exec_queries counter\nexec_queries 7\n",
		"# TYPE proc_heap_alloc_bytes gauge\nproc_heap_alloc_bytes 12.5\n",
		"# TYPE admission_queue_depth gauge\nadmission_queue_depth 3\n",
		"exec_latency_ns{quantile=\"0.5\"}",
		"exec_latency_ns_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestWritePromToCollision: two registry names that sanitize to the
// same family ("a.b" vs "a_b") must not emit duplicate TYPE lines —
// the later one gets a numeric suffix.
func TestWritePromToCollision(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.b").Add(1)
	reg.Counter("a_b").Add(2)
	var buf bytes.Buffer
	if _, err := reg.WritePromTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE a_b counter") != 1 {
		t.Fatalf("want exactly one 'a_b' TYPE line:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE a_b_1 counter\na_b_1 ") {
		t.Fatalf("collision did not get a numeric suffix:\n%s", out)
	}
}
