package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	apmetrics "apollo/internal/metrics"
)

// sample is one timed operation: when it finished (for the half-window
// steadiness split) and how long it took.
type sample struct {
	at  time.Time
	dur time.Duration
}

// samples collects latencies from several client goroutines.
type samples struct {
	mu  sync.Mutex
	all []sample
}

func (s *samples) add(start time.Time, end time.Time) {
	s.mu.Lock()
	s.all = append(s.all, sample{at: end, dur: end.Sub(start)})
	s.mu.Unlock()
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.all)
}

// chunkQuantileMs is the q-quantile in ms, taken as the median over
// consecutive chunks of samples (in completion order) each large enough to
// leave ten samples beyond q: a burst of host noise moves one chunk, not the
// figure. Chunks are cut on multiples of unit samples, so a workload whose
// ops come in fixed mixes (ssb_warm's 13-query passes) gives every chunk
// whole mixes. It also returns the chunk count; with too few samples for
// one chunk it is the quantile of them all.
func (s *samples) chunkQuantileMs(q float64, unit int) (float64, int) {
	s.mu.Lock()
	all := append([]sample(nil), s.all...)
	s.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	size := int(math.Ceil(10/(1-q) - 1e-9)) // p50: 20, p95: 200, p99: 1000
	units := len(all) / unit                // a trailing partial mix joins the last chunk
	k := max(1, units/((size+unit-1)/unit))
	per := make([]float64, k)
	for c := range per {
		lo, hi := c*units/k*unit, (c+1)*units/k*unit
		if c == k-1 {
			hi = len(all)
		}
		chunk := all[lo:hi]
		d := make([]float64, len(chunk))
		for i, x := range chunk {
			d[i] = float64(x.dur.Nanoseconds()) / 1e6
		}
		per[c] = quantile(d, q)
	}
	return median(per), k
}

// rate is completed samples per second, as the median over ten equal time
// slices of [start, end].
func (s *samples) rate(start, end time.Time) float64 {
	const k = 10
	width := end.Sub(start).Seconds() / k
	per := make([]float64, k)
	for i, n := range s.slices(start, end, k) {
		per[i] = float64(n) / width
	}
	return median(per)
}

// slices counts the samples finishing in each of k equal slices of
// [start, end].
func (s *samples) slices(start, end time.Time, k int) []int {
	out := make([]int, k)
	width := end.Sub(start)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, x := range s.all {
		i := int(int64(k) * int64(x.at.Sub(start)) / int64(width))
		out[min(max(i, 0), k-1)]++
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// counters is a point-in-time copy of the program's exported counters: the
// process-wide metrics registry and the Go runtime's.
type counters struct {
	reg map[string]float64
	rt  map[string]float64
	at  time.Time
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// snapshotCounters reads every counter. The registry is the process-wide one
// DB.MetricsSnapshot returns, so it covers in-process server tenants too.
func snapshotCounters() counters {
	c := counters{reg: apmetrics.Default.Snapshot(), rt: map[string]float64{}, at: time.Now()}
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	for _, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			c.rt[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			c.rt[s.Name] = s.Value.Float64()
		}
	}
	return c
}

// delta is the change between two snapshots.
type delta struct{ a, b counters }

// reg sums the change of every registry series whose name starts with prefix
// (labelled series such as per-tenant counters share one prefix).
func (d delta) reg(prefix string) float64 {
	var sum float64
	for k, v := range d.b.reg {
		if strings.HasPrefix(k, prefix) {
			sum += v - d.a.reg[k]
		}
	}
	return sum
}

func (d delta) rt(name string) float64 { return d.b.rt[name] - d.a.rt[name] }

func (d delta) seconds() float64 { return d.b.at.Sub(d.a.at).Seconds() }

// settle collects garbage and writes back dirty pages, so a measurement
// does not pay for earlier work: earlier writes otherwise reach the disk
// during the measured fsyncs.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// heapLiveMB forces a collection and reports the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// windowMetrics fills the metrics every workload derives the same way from
// its window: allocation and GC per op, the program's shared layer counters
// per query, and the steadiness ratio of the op samples.
func windowMetrics(o *outcome, d delta, ops float64, queries float64, opSamples *samples, start, end time.Time) {
	o.metrics["alloc_bytes_per_op"] = ratio(d.rt("/gc/heap/allocs:bytes"), ops)
	o.metrics["runtime.gc_cpu_fraction"] = ratio(d.rt("/cpu/classes/gc/total:cpu-seconds"), d.rt("/cpu/classes/total:cpu-seconds"))
	o.metrics["runtime.gc_cycles_per_op"] = ratio(d.rt("/gc/cycles/total:gc-cycles"), ops)

	o.metrics["plan.stats_refreshes_per_query"] = ratio(d.reg("apollo_plan_stats_collections_total"), queries)
	o.metrics["exec.spills_per_query"] = ratio(d.reg("apollo_exec_spills_total"), queries)
	o.metrics["scan.rows_out_ratio"] = ratio(d.reg("apollo_scan_rows_output_total"), d.reg("apollo_scan_rows_considered_total"))
	o.metrics["scan.groups_eliminated_ratio"] = ratio(d.reg("apollo_scan_row_groups_eliminated_total"), d.reg("apollo_scan_row_groups_total"))
	coded := d.reg("apollo_scan_string_cols_coded_total")
	o.metrics["scan.strings_coded_ratio"] = ratio(coded, coded+d.reg("apollo_scan_string_cols_materialized_total"))
	o.metrics["colstore.segments_opened_per_query"] = ratio(d.reg("apollo_colstore_segments_opened_total"), queries)
	o.metrics["colstore.decode_ms_per_query"] = ratio(1000*(d.reg(`apollo_colstore_decode_seconds{enc="dict"}_sum`)+
		d.reg(`apollo_colstore_decode_seconds{enc="numeric"}_sum`)), queries)
	hits, misses := d.reg("apollo_storage_cache_hits_total"), d.reg("apollo_storage_cache_misses_total")
	o.metrics["storage.hit_ratio"] = ratio(hits, hits+misses)
	o.metrics["storage.read_bytes_per_query"] = ratio(d.reg("apollo_storage_read_bytes_total"), queries)
	o.metrics["delta.rows_scanned_per_query"] = ratio(d.reg("apollo_scan_delta_rows_total"), queries)
	moves, aborts := d.reg("apollo_mover_moves_total"), d.reg("apollo_mover_aborts_total")
	o.metrics["table.mover_moves_per_s"] = ratio(moves, d.seconds())
	o.metrics["table.mover_abort_ratio"] = ratio(aborts, moves+aborts)
	o.metrics["server.rows_streamed_per_query"] = ratio(d.reg("apollod_rows_streamed_total"), queries)
	o.metrics["broker.admission_wait_ms"] = ratio(1000*d.reg("apollod_admission_wait_seconds_sum"), d.reg("apollod_admission_wait_seconds_count"))
	admitted, shed := d.reg("apollod_queries_admitted_total"), d.reg("apollod_queries_shed_total")
	o.metrics["broker.shed_ratio"] = ratio(shed, admitted+shed)
	o.metrics["tenant.evictions"] = d.reg("apollod_tenant_evictions_total")

	halves := opSamples.slices(start, end, 2)
	o.metrics["window.second_half_ratio"] = ratio(float64(halves[1]), float64(halves[0]))
	o.facts["window_slices"] = opSamples.slices(start, end, 10)
}

// latencyMetrics sets a latency family, p50 and the high percentile under
// the names given, with chunks cut on multiples of unit samples (see
// chunkQuantileMs), and records the sample and chunk counts behind them.
func latencyMetrics(o *outcome, s *samples, unit int, p50Name string, high float64, highName string) {
	p50, k50 := s.chunkQuantileMs(0.5, unit)
	ph, kh := s.chunkQuantileMs(high, unit)
	o.metrics[p50Name] = p50
	o.metrics[highName] = ph
	o.facts[p50Name+"_samples"] = map[string]int{"n": s.n(), "chunks": k50}
	o.facts[highName+"_samples"] = map[string]int{"n": s.n(), "chunks": kh}
}
