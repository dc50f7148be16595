package obs

import (
	"math"
	"strings"
	"testing"
)

// TestParseEmptyFamilies: text with no histogram series — empty input,
// comments only, or counters/gauges alone — parses to an empty map.
func TestParseEmptyFamilies(t *testing.T) {
	for _, text := range []string{
		"",
		"# HELP sias_x_total x\n# TYPE sias_x_total counter\n",
		"# HELP sias_x_total x\n# TYPE sias_x_total counter\nsias_x_total 5\nsias_g 1.5\n",
	} {
		parsed, err := ParseHistograms(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		if len(parsed) != 0 {
			t.Fatalf("parse %q: found %d histograms, want 0", text, len(parsed))
		}
	}
}

// TestParseEscapedLabelsRoundTrip: a label value holding every escaped
// character (backslash, quote, newline) plus a comma — which stresses the
// quote-aware label splitter — survives WriteText -> ParseHistograms.
func TestParseEscapedLabelsRoundTrip(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("sias_esc_seconds", "esc", []float64{1},
		Labels{"path": "a\\b\"c\nd,e", "op": "GET"})
	h.Observe(0.5)
	h.Observe(2)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseHistograms(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 {
		t.Fatalf("parsed %d series, want 1: %v", len(parsed), keysOf(parsed))
	}
	for key, p := range parsed {
		if !strings.Contains(key, `op="GET"`) {
			t.Fatalf("series key %q lost the plain label", key)
		}
		if p.Count != 2 || math.Abs(p.Sum-2.5) > 1e-9 {
			t.Fatalf("count=%d sum=%v, want 2/2.5", p.Count, p.Sum)
		}
		if len(p.Bounds) != 1 || p.Counts[0] != 1 || p.Counts[1] != 1 {
			t.Fatalf("buckets %v/%v, want one observation per bucket", p.Bounds, p.Counts)
		}
	}
}
