package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"apollo"
	"apollo/internal/sqltypes"
	"apollo/internal/workload"
)

const (
	oltpSessions = 2
	aggEvery     = 4 // every 4th iteration also runs the grouped aggregate
	warmupIters  = 25
	aggSQL       = "SELECT lo_discount, COUNT(*) AS n, SUM(lo_quantity) AS q FROM lineorder GROUP BY lo_discount"
)

// runOLTPTrickle is two app sessions committing small transactions with
// fsync=always on a durable database while the tuple mover compresses
// closed delta stores behind them: each iteration inserts two fact rows and
// bumps the session's own hot counter, and every fourth also reads a grouped
// aggregate over the fact table on its own snapshot.
func runOLTPTrickle(e *env) (*outcome, error) {
	o := newOutcome()
	sc := e.scale
	rows := workload.GenSSB(sc.oltpSF, e.seed).Lineorder
	rows = rows[:len(rows)/sc.oltpRowGroup*sc.oltpRowGroup] // whole row groups only
	preload := int64(len(rows))
	o.facts["scale"] = map[string]any{"preload_rows": preload, "row_group": sc.oltpRowGroup,
		"sessions": oltpSessions, "fsync": "always", "parallel": 1}
	buf := frames(workload.LineorderSchema, rows)
	rows = nil
	e.phase("generate")

	cfg := apollo.DefaultConfig() // tuple mover every 100ms
	cfg.Parallel = 1              // two sessions already fill the two cores
	cfg.FsyncPolicy = "always"
	cfg.RowGroupSize = sc.oltpRowGroup
	cfg.BulkLoadThreshold = sc.oltpRowGroup
	cfg.RandSeed = e.seed

	var setups, ingest, loadMs []float64
	var direct, loaded float64
	var db *apollo.DB
	var dir string
	for rep := 0; rep < sc.oltpSetups; rep++ {
		dir = filepath.Join(e.workDir, fmt.Sprintf("oltp-%d", rep))
		settle()
		start := time.Now()
		if err := setupOLTP(dir, cfg, buf, sc.oltpRowGroup, int(preload)); err != nil {
			return nil, err
		}
		x, err := apollo.OpenDir(dir, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		settle()
		res, loadDur, err := memLoad(cfg, buf, sc.oltpRowGroup, int(preload))
		if err != nil {
			x.Close()
			return nil, err
		}
		ingest = append(ingest, float64(res.RowsLoaded)/loadDur.Seconds())
		loadMs = append(loadMs, float64(loadDur.Nanoseconds())/1e6)
		direct += float64(res.RowsDirect)
		loaded += float64(res.RowsLoaded)
		if rep < sc.oltpSetups-1 {
			x.Close()
			os.RemoveAll(dir)
			continue
		}
		db = x
	}
	defer db.Close()
	buf = nil
	e.phase("setup")
	o.metrics["setup_s"] = median(setups)
	// The window's inserts are two rows a commit, so its row rate would only
	// restate its commit rate; ingest is a bulk DB.Load of the preload
	// instead, into an in-memory database with the same row groups. The
	// durable preload's load rate followed the shared disk: over one batch of
	// ten runs its spread was 0.44.
	o.metrics["ingest_rows_per_s"] = median(ingest)
	o.metrics["load.server_ms"] = median(loadMs)
	o.metrics["load.direct_ratio"] = ratio(direct, loaded)
	o.facts["setup_s_all"] = setups

	var committed atomic.Int64 // write transactions acked, all sessions
	sessions := make([]*oltpSession, oltpSessions)
	for i := range sessions {
		sessions[i] = &oltpSession{e: e, db: db, id: i + 1, preload: preload, committed: &committed,
			rng: rand.New(rand.NewSource(e.seed*7919 + int64(i)))}
	}
	runSessions := func(deadline time.Time, iters int) {
		var wg sync.WaitGroup
		for _, s := range sessions {
			wg.Add(1)
			go func(s *oltpSession) {
				defer wg.Done()
				s.loop(deadline, iters)
			}(s)
		}
		wg.Wait()
	}
	runSessions(time.Time{}, warmupIters)
	e.phase("warmup")

	settle()
	before := snapshotCounters()
	start := time.Now()
	runSessions(start.Add(e.window), 0)
	end := time.Now()
	dl := delta{before, snapshotCounters()}
	o.metrics["heap_live_mb"] = heapLiveMB()

	var commitLat, queryLat, opLat samples
	var writes, commits, conflicts int64
	var scanW, aggW []float64
	for _, s := range sessions {
		scanW, aggW = append(scanW, s.scanW...), append(aggW, s.aggW...)
		commitLat.all = append(commitLat.all, s.commitLat.all...)
		queryLat.all = append(queryLat.all, s.queryLat.all...)
		o.attempted += s.attempted
		o.failed += s.failed
		writes += s.writes
		commits += s.commits
		conflicts += s.conflicts
		o.mismatch = append(o.mismatch, s.mismatch...)
	}
	opLat.all = append(append(opLat.all, commitLat.all...), queryLat.all...)
	o.metrics["txn.commits_per_s"] = commitLat.rate(start, end)
	o.metrics["queries_per_s"] = queryLat.rate(start, end)
	latencyMetrics(o, &commitLat, 1, "txn.commit_p50_ms", 0.99, "txn.commit_p99_ms")
	latencyMetrics(o, &queryLat, 1, "query_p50_ms", 0.95, "query_p95_ms")
	windowMetrics(o, dl, float64(o.attempted), float64(queryLat.n()), &opLat, start, end)
	o.metrics["exec.scan_wall_ms"] = median(scanW)
	o.metrics["exec.agg_wall_ms"] = median(aggW)
	o.metrics["txn.conflict_ratio"] = ratio(float64(conflicts), float64(writes))
	o.metrics["wal.fsyncs_per_commit"] = ratio(dl.reg("apollo_wal_fsyncs_total"), float64(commits))
	o.metrics["wal.bytes_per_commit"] = ratio(dl.reg("apollo_wal_bytes_total"), float64(commits))

	// Oracle: every acked write is there exactly once.
	total := committed.Load()
	res, err := db.Query("SELECT COUNT(*) FROM lineorder")
	if err != nil {
		return nil, err
	}
	if got, want := res.Rows[0][0].I, preload+2*total; got != want {
		o.fail("fact table has %d rows, want preload %d + 2 x %d commits = %d", got, preload, total, want)
	}
	res, err = db.Query("SELECT sess, counter FROM hot ORDER BY sess")
	if err != nil {
		return nil, err
	}
	for i, s := range sessions {
		if i >= len(res.Rows) || res.Rows[i][1].I != s.acked {
			o.fail("session %d hot counter %v, want %d commits", s.id, res.Rows, s.acked)
		}
	}
	o.metrics["disk_bytes_per_row"] = float64(db.DiskBytes()) / float64(preload+2*total)
	o.facts["commits_total"] = total
	e.phase("window_and_oracle")

	if e.trace != nil {
		o.facts["end_to_end"] = pick(o.metrics, endToEnd)
		o.metrics["sql.parse_us"] = 1000 * e.trace.medianMs("sql.Parse")
		o.metrics["plan.compile_ms"] = e.trace.medianMs("plan.compile")
		o.metrics["exec.run_ms"] = e.trace.medianMs("apollo.Tx.Exec.select")
		o.metrics["txn.exec_ms"] = e.trace.medianMs(txExecSpan)
		o.metrics["txn.commit_ms"] = e.trace.medianMs("apollo.Tx.Commit")
		if err := layerProbes(e, o); err != nil {
			return nil, err
		}
		e.phase("layer_probes")
	}
	// The aggregate has no join, hence no Bloom filter; no server or wire.
	setZero(o, "exec.join_wall_ms", "exec.exchange_busy_ratio", "scan.bloom_pass_ratio",
		"server.ttfb_ms", "load.wire_ms")
	return o, nil
}

// setupOLTP creates and preloads the fact table and the per-session hot rows
// in dir, with fsync off, and closes the database; the caller reopens it
// with fsync=always, which recovers the preload from the files. Loading
// with fsync=always would make the set-up time a measure of the disk's
// fsync latency: the preload publishes one fsynced row group per 4096 rows.
func setupOLTP(dir string, cfg apollo.Config, buf []byte, rowGroup, rows int) error {
	cfg.FsyncPolicy = "off"
	cfg.TupleMoverInterval = 0
	db, err := apollo.OpenDir(dir, cfg)
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.CreateTable("lineorder", workload.LineorderSchema); err != nil {
		return err
	}
	if _, _, err := timedLoad(db, "lineorder", buf, rowGroup, rows); err != nil {
		return err
	}
	if _, err := db.Exec("CREATE TABLE hot (sess BIGINT, counter BIGINT)"); err != nil {
		return err
	}
	vals := make([]string, oltpSessions)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, 0)", i+1)
	}
	_, err = db.Exec("INSERT INTO hot VALUES " + strings.Join(vals, ", "))
	return err
}

// memLoad times a bulk DB.Load of the preload into an in-memory database
// with the same row groups: the load path without the disk.
func memLoad(cfg apollo.Config, buf []byte, rowGroup, rows int) (*apollo.LoadResult, time.Duration, error) {
	cfg.TupleMoverInterval = 0
	db := apollo.Open(cfg)
	defer db.Close()
	if _, err := db.CreateTable("lineorder", workload.LineorderSchema); err != nil {
		return nil, 0, err
	}
	return timedLoad(db, "lineorder", buf, rowGroup, rows)
}

// oltpSession is one app session's closed loop and its tallies.
type oltpSession struct {
	e         *env
	db        *apollo.DB
	id        int
	preload   int64
	committed *atomic.Int64
	rng       *rand.Rand
	next      int64 // next fact key of this session

	acked                              int64 // all write commits, warm-up included
	attempted, failed, writes, commits int64 // measured window only
	conflicts                          int64
	commitLat, queryLat                samples
	scanW, aggW                        []float64 // per aggregate, inclusive operator wall ms
	mismatch                           []string
}

// loop runs the measured window until deadline or, with a zero deadline,
// iters unmeasured warm-up iterations.
func (s *oltpSession) loop(deadline time.Time, iters int) {
	measure := !deadline.IsZero()
	for i := 0; measure && time.Now().Before(deadline) || !measure && i < iters; i++ {
		t0 := time.Now()
		err := s.write()
		t1 := time.Now()
		if measure {
			s.attempted++
			s.writes++
			if err != nil {
				s.failed++
			} else {
				s.commits++
				s.commitLat.add(t0, t1)
			}
		}
		if errors.Is(err, apollo.ErrWriteConflict) {
			s.conflicts++
		} else if err != nil {
			s.mismatch = append(s.mismatch, fmt.Sprintf("session %d write: %v", s.id, err))
		}
		if i%aggEvery != aggEvery-1 {
			continue
		}
		t0 = time.Now()
		err = s.aggregate()
		t1 = time.Now()
		if measure {
			s.attempted++
			if err != nil {
				s.failed++
			} else {
				s.queryLat.add(t0, t1)
			}
		}
		if err != nil {
			s.mismatch = append(s.mismatch, fmt.Sprintf("session %d aggregate: %v", s.id, err))
		}
	}
}

// write is one transaction: insert two fact rows, bump the hot counter.
func (s *oltpSession) write() error {
	tr := s.e.trace
	op := tr.newOp()
	root := tr.start("oltp.txn", 0, op)
	defer tr.end(root)
	tx, err := begin(tr, s.db, root, op)
	if err != nil {
		return err
	}
	vals := make([]string, 2)
	for k := range vals {
		s.next++
		key := int64(s.id)<<40 | s.next
		qty, price, disc := 1+s.rng.Intn(50), 90000+s.rng.Intn(1000000), s.rng.Intn(11)
		vals[k] = fmt.Sprintf("(%d, %d, %d, %d, '%s', %d, %d, %d, %d, %d)", key, 1+s.rng.Intn(100),
			1+s.rng.Intn(100), 1+s.rng.Intn(10), sqltypes.DateToString(int64(8035+s.rng.Intn(2555))),
			qty, price, disc, price*(100-disc)/100, price*6/10)
	}
	stmts := []string{
		"INSERT INTO lineorder VALUES " + strings.Join(vals, ", "),
		fmt.Sprintf("UPDATE hot SET counter = counter + 1 WHERE sess = %d", s.id),
	}
	for _, st := range stmts {
		if _, err := txExec(tr, s.db, tx, st, txExecSpan, root, op); err != nil {
			tx.Rollback(context.Background()) // a conflict has already rolled back
			return err
		}
	}
	if err := commit(tr, tx, root, op); err != nil {
		return err
	}
	s.acked++
	s.committed.Add(1)
	return nil
}

// aggregate reads the grouped aggregate in a read-only transaction and
// checks its row total against the commits acked around it.
func (s *oltpSession) aggregate() error {
	tr := s.e.trace
	op := tr.newOp()
	root := tr.start("oltp.aggregate", 0, op)
	defer tr.end(root)
	lo := s.preload + 2*s.committed.Load()
	tx, err := begin(tr, s.db, root, op)
	if err != nil {
		return err
	}
	defer tx.Rollback(context.Background())
	res, err := txExec(tr, s.db, tx, aggSQL, "apollo.Tx.Exec.select", root, op)
	if err != nil {
		return err
	}
	sw, _, aw := opWalls(res.Operators)
	s.scanW, s.aggW = append(s.scanW, sw), append(s.aggW, aw)
	// Commits become visible before Commit returns, so each other session
	// may add one unacked transaction.
	hi := s.preload + 2*(s.committed.Load()+oltpSessions)
	var n int64
	for _, r := range res.Rows {
		n += r[1].I
	}
	if n < lo || n > hi {
		return fmt.Errorf("aggregate saw %d rows, want within [%d, %d]", n, lo, hi)
	}
	return nil
}
