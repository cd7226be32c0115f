package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"
	"time"

	"apollo/internal/workload"
)

// TestTinyRunsEmitEveryMetric runs every workload at a tiny scale, untraced
// and traced, and checks the result line: every named metric with its unit
// and a finite value, no failed op, and a passing oracle.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			e := newEnv(name, 7, time.Second, traced, tinyScale, t.TempDir())
			out, err := workloads[name](e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var buf bytes.Buffer
			if err := printResult(&buf, traced, out); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var res struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
				t.Fatalf("%s: result line %q: %v", name, buf.String(), err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d (error_rate must be 0)",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", name, traced, d.name, m, d.unit)
				}
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSeedFixesData checks that a seed fixes the generated dataset and that
// another seed changes it.
func TestSeedFixesData(t *testing.T) {
	a, b := checksum(workload.GenSSB(0.05, 1)), checksum(workload.GenSSB(0.05, 1))
	if a != b {
		t.Fatalf("same seed, checksums %x and %x", a, b)
	}
	if c := checksum(workload.GenSSB(0.05, 2)); c == a {
		t.Fatalf("seeds 1 and 2 gave the same checksum %x", a)
	}
}
