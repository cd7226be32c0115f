// Command perfbench is apollo's end-to-end and per-layer benchmark. It runs
// one workload per invocation against the engine's public entry points and
// prints one JSON result line; see README.md for the workloads and metrics.
//
//	perfbench --workload ssb_warm --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics from a separate traced run. Each run also
// writes a stamped record (and, when traced, its spans) under
// .bench_build/records and .bench_build/traces in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// endToEnd lists the end-to-end metrics every untraced run reports, in the
// order BENCHMARK.json names them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"queries_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"ingest_rows_per_s", "1/s"},
	{"alloc_bytes_per_op", "B"},
	{"heap_live_mb", "MiB"},
	{"disk_bytes_per_row", "B"},
}

// perLayer lists the per-layer metrics every traced run reports. A layer a
// workload does not exercise reads 0 (README.md maps each to its workloads).
var perLayer = []metricDef{
	{"sql.parse_us", "us"},
	{"plan.compile_ms", "ms"},
	{"plan.stats_refreshes_per_query", "count"},
	{"exec.run_ms", "ms"},
	{"exec.scan_wall_ms", "ms"},
	{"exec.join_wall_ms", "ms"},
	{"exec.agg_wall_ms", "ms"},
	{"exec.exchange_busy_ratio", "ratio"},
	{"exec.spills_per_query", "count"},
	{"scan.rows_out_ratio", "ratio"},
	{"scan.groups_eliminated_ratio", "ratio"},
	{"scan.bloom_pass_ratio", "ratio"},
	{"scan.strings_coded_ratio", "ratio"},
	{"colstore.segments_opened_per_query", "count"},
	{"colstore.decode_ms_per_query", "ms"},
	{"colstore.decode_ns_per_row.bitpack", "ns"},
	{"colstore.decode_ns_per_row.rle", "ns"},
	{"colstore.decode_ns_per_row.dict", "ns"},
	{"colstore.decode_bytes_per_row", "B"},
	{"colstore.build_ns_per_row", "ns"},
	{"storage.hit_ratio", "ratio"},
	{"storage.get_hit_ns", "ns/MiB"},
	{"storage.get_miss_ns", "ns/MiB"},
	{"storage.read_bytes_per_query", "B"},
	{"delta.rows_scanned_per_query", "count"},
	{"txn.exec_ms", "ms"},
	{"txn.commit_ms", "ms"},
	{"txn.commits_per_s", "1/s"},
	{"txn.commit_p50_ms", "ms"},
	{"txn.commit_p99_ms", "ms"},
	{"txn.conflict_ratio", "ratio"},
	{"table.mover_moves_per_s", "1/s"},
	{"table.mover_abort_ratio", "ratio"},
	{"wal.fsyncs_per_commit", "count"},
	{"wal.bytes_per_commit", "B"},
	{"wal.fsync_us", "us"},
	{"server.ttfb_ms", "ms"},
	{"server.rows_streamed_per_query", "count"},
	{"broker.admission_wait_ms", "ms"},
	{"broker.shed_ratio", "ratio"},
	{"tenant.evictions", "count"},
	{"load.server_ms", "ms"},
	{"load.wire_ms", "ms"},
	{"load.direct_ratio", "ratio"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles_per_op", "count"},
	{"window.second_half_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"ssb_warm":     runSSBWarm,
	"oltp_trickle": runOLTPTrickle,
	"serve_cold":   runServeCold,
}

// env is one run's inputs.
type env struct {
	workload string
	seed     int64
	window   time.Duration
	trace    *tracer // nil when untraced
	scale    scale
	workDir  string // scratch space for this run, removed at exit

	last   time.Time          // end of the previous run phase
	phases map[string]float64 // wall seconds per run phase, for the record
}

// phase closes the current run phase under name (time budget, not a metric).
func (e *env) phase(name string) {
	now := time.Now()
	e.phases[name] = now.Sub(e.last).Seconds()
	e.last = now
}

// outcome is what a workload hands back: its metrics, op counts, the result
// of its correctness oracle, and run facts for the record.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	mismatch  []string // oracle failures; any entry fails the run
	facts     map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, facts: map[string]any{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.mismatch = append(o.mismatch, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: ssb_warm, oltp_trickle or serve_cold")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	buildDir, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(mkdirAll(buildDir, "tmp"), name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	e := newEnv(name, seed, time.Duration(seconds)*time.Second, traced, fullScale, workDir)
	out, err := fn(e)
	if err != nil {
		return err
	}
	rec := stampRecord(e, out)
	tag := fmt.Sprintf("%s-seed%d-trace%d", name, seed, boolInt(traced))
	if traced {
		rec["span_self_ms"] = e.trace.selfTimes()
		rec["tracing_overhead"] = tracingOverhead(filepath.Join(buildDir, "records"), name, seed, out.facts["end_to_end"])
		if err := e.trace.write(filepath.Join(mkdirAll(buildDir, "traces"), tag+".jsonl")); err != nil {
			return err
		}
	}
	if err := writeJSON(filepath.Join(mkdirAll(buildDir, "records"), tag+".json"), rec); err != nil {
		return err
	}
	return printResult(os.Stdout, traced, out)
}

func newEnv(name string, seed int64, window time.Duration, traced bool, sc scale, workDir string) *env {
	e := &env{workload: name, seed: seed, window: window, scale: sc, workDir: workDir,
		last: time.Now(), phases: map[string]float64{}}
	if traced {
		e.trace = newTracer()
	}
	return e
}

// printResult writes the one-line result the caller parses. A failed
// oracle or any failed op still prints (correct=false) so the failure is
// visible, then errors: the run must finish with an error rate of 0.
func printResult(w io.Writer, traced bool, out *outcome) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite (%v)", d.name, v)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, m := range out.mismatch {
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", m)
	}
	ok := len(out.mismatch) == 0 && out.failed == 0
	line, err := json.Marshal(map[string]any{
		"correct":   ok,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if !ok {
		return fmt.Errorf("%d oracle mismatches, %d of %d ops failed", len(out.mismatch), out.failed, out.attempted)
	}
	return nil
}

// stampRecord assembles the run record: host and run facts, the sample count
// behind every percentile (in out.facts), all metrics and the oracle result.
func stampRecord(e *env, out *outcome) map[string]any {
	host, _ := os.Hostname()
	rec := map[string]any{
		"workload":   e.workload,
		"seed":       e.seed,
		"traced":     e.trace != nil,
		"window_s":   e.window.Seconds(),
		"host":       host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_sha":    gitSHA(),
		"time":       time.Now().UTC().Format(time.RFC3339),
		"attempted":  out.attempted,
		"failed":     out.failed,
		"error_rate": ratio(float64(out.failed), float64(out.attempted)),
		"correct":    len(out.mismatch) == 0 && out.failed == 0,
		"mismatches": out.mismatch,
		"metrics":    out.metrics,
		"phases_s":   e.phases,
	}
	for k, v := range out.facts {
		rec[k] = v
	}
	return rec
}

// gitSHA reads the commit the launcher resolved; a checkout that is not a
// git repository has none.
func gitSHA() string {
	if s := os.Getenv("PERFBENCH_GIT_SHA"); s != "" {
		return s
	}
	return "unknown"
}

// tracingOverhead compares this traced run's end-to-end figures with the
// untraced record of the same workload and seed, when one exists:
// traced minus untraced, per metric.
func tracingOverhead(dir, name string, seed int64, traced any) map[string]float64 {
	tm, _ := traced.(map[string]float64)
	raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace0.json", name, seed)))
	if err != nil || tm == nil {
		return nil
	}
	var rec struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if json.Unmarshal(raw, &rec) != nil {
		return nil
	}
	diff := map[string]float64{}
	for k, v := range tm {
		if u, ok := rec.Metrics[k]; ok {
			diff[k] = v - u
		}
	}
	return diff
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func mkdirAll(parts ...string) string {
	p := filepath.Join(parts...)
	os.MkdirAll(p, 0o755) // a failure surfaces at the first write into p
	return p
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pick copies the named metrics (a traced run keeps its end-to-end figures
// for the tracing-overhead comparison).
func pick(m map[string]float64, defs []metricDef) map[string]float64 {
	out := map[string]float64{}
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			out[d.name] = v
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
