package obs

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParsedHist is one histogram series reconstructed from exposition text:
// finite bucket bounds with per-bucket (non-cumulative) counts, plus sum
// and count. Tests use it as the oracle for what /metrics exposes.
type ParsedHist struct {
	Bounds []float64 // ascending finite upper bounds
	Counts []int64   // len(Bounds)+1, last is +Inf
	Sum    float64
	Count  int64
}

// Quantile extracts the q-quantile with the same interpolation the live
// Histogram uses.
func (p *ParsedHist) Quantile(q float64) float64 {
	return quantile(q, p.Bounds, p.Counts)
}

// ParseHistograms parses Prometheus text exposition and returns every
// histogram series, keyed by "name{labels}" with the le label removed and
// the remaining labels in the order they appeared (e.g.
// `sias_server_op_seconds{op="GET"}`, or a bare `name` with no labels).
// Non-histogram lines are ignored. The parser accepts exactly the subset
// the registry emits plus arbitrary label order.
func ParseHistograms(text string) (map[string]*ParsedHist, error) {
	type raw struct {
		cum   map[float64]int64 // le -> cumulative count
		inf   int64
		sum   float64
		count int64
	}
	raws := map[string]*raw{}
	rawFor := func(key string) *raw {
		r, ok := raws[key]
		if !ok {
			r = &raw{cum: map[float64]int64{}}
			raws[key] = r
		}
		return r
	}

	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le, rest, ok := splitLE(labels)
			if !ok {
				continue // a _bucket-suffixed counter that is not a histogram
			}
			key := strings.TrimSuffix(name, "_bucket") + rest
			r := rawFor(key)
			if math.IsInf(le, +1) {
				r.inf = int64(value)
			} else {
				r.cum[le] = int64(value)
			}
		case strings.HasSuffix(name, "_sum"):
			rawFor(strings.TrimSuffix(name, "_sum") + labels).sum = value
		case strings.HasSuffix(name, "_count"):
			rawFor(strings.TrimSuffix(name, "_count") + labels).count = int64(value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := map[string]*ParsedHist{}
	for key, r := range raws {
		if len(r.cum) == 0 && r.inf == 0 && r.count == 0 {
			continue
		}
		bounds := make([]float64, 0, len(r.cum))
		for le := range r.cum {
			bounds = append(bounds, le)
		}
		sort.Float64s(bounds)
		counts := make([]int64, len(bounds)+1)
		var prev int64
		for i, le := range bounds {
			counts[i] = r.cum[le] - prev
			prev = r.cum[le]
		}
		counts[len(bounds)] = r.inf - prev
		out[key] = &ParsedHist{Bounds: bounds, Counts: counts, Sum: r.sum, Count: r.inf}
	}
	return out, nil
}

// parseSample splits `name{labels} value` (labels optional).
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("obs: malformed sample %q", line)
		}
		labels = rest[i : j+1]
		rest = rest[j+1:]
	} else {
		k := strings.IndexByte(rest, ' ')
		if k < 0 {
			return "", "", 0, fmt.Errorf("obs: malformed sample %q", line)
		}
		name = rest[:k]
		rest = rest[k:]
	}
	v, perr := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if perr != nil {
		return "", "", 0, fmt.Errorf("obs: malformed value in %q: %v", line, perr)
	}
	return name, labels, v, nil
}

// splitLE removes the le="..." label from a rendered label set, returning
// its parsed value and the remaining label suffix ("" when le was alone).
func splitLE(labels string) (le float64, rest string, ok bool) {
	if labels == "" {
		return 0, "", false
	}
	inner := labels[1 : len(labels)-1]
	parts := splitLabels(inner)
	kept := make([]string, 0, len(parts))
	found := false
	for _, p := range parts {
		if v, isLE := strings.CutPrefix(p, `le="`); isLE {
			v = strings.TrimSuffix(v, `"`)
			if v == "+Inf" {
				le, found = math.Inf(+1), true
			} else if f, err := strconv.ParseFloat(v, 64); err == nil {
				le, found = f, true
			}
			continue
		}
		kept = append(kept, p)
	}
	if !found {
		return 0, "", false
	}
	if len(kept) == 0 {
		return le, "", true
	}
	return le, "{" + strings.Join(kept, ",") + "}", true
}

// splitLabels splits `k="v",k2="v2"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip escaped char
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
