package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"apollo"
	"apollo/internal/workload"
)

// runSSBWarm is one analyst running the 13 SSB queries in a seeded order on
// an embedded batch-mode database whose data fits the buffer pool, so after
// warm-up every segment read hits: the work is scan, decode, join,
// aggregation and exchange.
func runSSBWarm(e *env) (*outcome, error) {
	o := newOutcome()
	sc := e.scale
	d := workload.GenSSB(sc.ssbSF, e.seed)
	o.facts["scale"] = map[string]any{"ssb_sf": sc.ssbSF, "row_group": sc.ssbRowGroup,
		"lineorder_rows": len(d.Lineorder), "parallel": 2}
	o.facts["dataset_checksum"] = fmt.Sprintf("%016x", checksum(d))
	loFrames := frames(workload.LineorderSchema, d.Lineorder)
	e.phase("generate")

	cfg := apollo.DefaultConfig()
	cfg.Parallel = 2
	cfg.TupleMoverInterval = 0
	cfg.RowGroupSize = sc.ssbRowGroup
	cfg.RandSeed = e.seed

	// Set up once in row mode for the oracle, then setupReps times in batch
	// mode; the last batch-mode database serves the window. The row-mode
	// set-up also warms the process (first-touch heap growth), so it is
	// left out of setup_s.
	var setups, ingest, loadMs []float64
	var direct, loaded float64
	var oracle map[string][]string
	var db *apollo.DB
	for rep := 0; rep <= sc.setupReps; rep++ {
		c := cfg
		if rep == 0 {
			c.Mode = apollo.ModeRow
		}
		settle()
		start := time.Now()
		x := apollo.Open(c)
		res, loadDur, err := loadSSB(x, d, loFrames, sc.ssbRowGroup)
		if err != nil {
			x.Close()
			return nil, err
		}
		if rep == 0 {
			oracle, err = rowOracle(x)
			x.Close()
			if err != nil {
				return nil, err
			}
			continue
		}
		setups = append(setups, time.Since(start).Seconds())
		ingest = append(ingest, float64(res.RowsLoaded)/loadDur.Seconds())
		loadMs = append(loadMs, float64(loadDur.Nanoseconds())/1e6)
		direct += float64(res.RowsDirect)
		loaded += float64(res.RowsLoaded)
		if rep < sc.setupReps {
			x.Close()
		} else {
			db = x
		}
	}
	defer db.Close()
	e.phase("setup_and_oracle")
	o.metrics["setup_s"] = median(setups)
	o.metrics["ingest_rows_per_s"] = median(ingest)
	o.metrics["load.server_ms"] = median(loadMs)
	o.metrics["load.direct_ratio"] = ratio(direct, loaded)
	o.facts["setup_s_all"] = setups

	rows := 0
	for _, t := range ssbTables(d) {
		rows += len(t.rows)
	}
	o.metrics["disk_bytes_per_row"] = float64(db.DiskBytes()) / float64(rows)
	d, loFrames = nil, nil // the database holds its own copy; free the inputs

	rng := rand.New(rand.NewSource(e.seed))
	check := func(q workload.Query, res *apollo.Result) {
		if !res.BatchMode {
			o.fail("%s ran in row mode", q.Name)
		}
		if got := canonRows(res.Rows); !slices.Equal(got, oracle[q.Name]) {
			o.fail("%s: %d rows differ from the row-mode answer (%d rows)", q.Name, len(got), len(oracle[q.Name]))
		}
	}
	for _, q := range queryOrder(rng) { // warm-up: fill the pool, collect statistics
		res, err := db.Query(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", q.Name, err)
		}
		check(q, res)
	}

	e.phase("warmup")
	var lat samples
	var queries int64
	var scanW, joinW, aggW []float64
	var bloomIn, bloomOut float64
	var queryTime time.Duration
	settle()
	before := snapshotCounters()
	start := time.Now()
	deadline := start.Add(e.window)
	var passMs []float64
	for time.Now().Before(deadline) { // whole passes, so every query weighs the same
		passStart := time.Now()
		for _, q := range queryOrder(rng) {
			op := e.trace.newOp()
			root := e.trace.start("ssb.query", 0, op)
			t0 := time.Now()
			res, err := runQuery(e.trace, db, q.SQL, root, op)
			t1 := time.Now()
			e.trace.end(root)
			queries++
			if err != nil {
				o.failed++
				o.fail("%s: %v", q.Name, err)
				continue
			}
			lat.add(t0, t1)
			queryTime += t1.Sub(t0)
			check(q, res)
			s, j, a := opWalls(res.Operators)
			scanW, joinW, aggW = append(scanW, s), append(joinW, j), append(aggW, a)
			bloomIn += float64(res.Stats.RowsAfterRangePush)
			bloomOut += float64(res.Stats.RowsAfterBloomFilter)
		}
		passMs = append(passMs, float64(time.Since(passStart).Nanoseconds())/1e6)
	}
	o.facts["pass_ms"] = passMs
	end := time.Now()
	dl := delta{before, snapshotCounters()}
	o.metrics["heap_live_mb"] = heapLiveMB()
	o.attempted += queries

	// Rates and percentiles go by whole passes, which all hold the same
	// work; a time slice or a chunk cut mid-pass would hold an uneven mix.
	perPass := make([]float64, len(passMs))
	for i, ms := range passMs {
		perPass[i] = float64(len(workload.SSBQueries())) / (ms / 1000)
	}
	o.metrics["queries_per_s"] = median(perPass)
	latencyMetrics(o, &lat, len(workload.SSBQueries()), "query_p50_ms", 0.95, "query_p95_ms")
	windowMetrics(o, dl, float64(queries), float64(queries), &lat, start, end)
	o.metrics["exec.scan_wall_ms"] = median(scanW)
	o.metrics["exec.join_wall_ms"] = median(joinW)
	o.metrics["exec.agg_wall_ms"] = median(aggW)
	o.metrics["exec.exchange_busy_ratio"] = ratio(dl.reg("apollo_exchange_worker_busy_seconds_sum"), 2*queryTime.Seconds())
	o.metrics["scan.bloom_pass_ratio"] = ratio(bloomOut, bloomIn)

	e.phase("window")
	if e.trace != nil {
		o.facts["end_to_end"] = pick(o.metrics, endToEnd)
		o.metrics["sql.parse_us"] = 1000 * e.trace.medianMs("sql.Parse")
		o.metrics["plan.compile_ms"] = e.trace.medianMs("plan.compile")
		o.metrics["exec.run_ms"] = e.trace.medianMs("apollo.Stmt.ExecContext")
		if err := layerProbes(e, o); err != nil {
			return nil, err
		}
		e.phase("layer_probes")
	}
	// The window holds no transactions; no WAL, server or wire.
	setZero(o, "txn.exec_ms", "txn.commit_ms", "txn.commits_per_s", "txn.commit_p50_ms",
		"txn.commit_p99_ms", "txn.conflict_ratio", "wal.fsyncs_per_commit", "wal.bytes_per_commit",
		"server.ttfb_ms", "load.wire_ms")
	return o, nil
}

// runQuery prepares and executes one ad-hoc SELECT the way an analyst's
// client does: DB.Prepare then Stmt.ExecContext.
func runQuery(tr *tracer, db *apollo.DB, src string, parent, op int64) (*apollo.Result, error) {
	st, err := prepare(tr, db, src, parent, op)
	if err != nil {
		return nil, err
	}
	id := tr.start("apollo.Stmt.ExecContext", parent, op)
	defer tr.end(id)
	return st.ExecContext(context.Background())
}
