package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"apollo"
	"apollo/internal/server"
	"apollo/internal/server/broker"
	"apollo/internal/server/client"
	"apollo/internal/sql"
	"apollo/internal/workload"
)

const (
	coldConns = 2
	// loadEvery spaces each connection's loads. A fixed schedule, rather
	// than every n-th request, keeps the number of loads in a window the
	// same from run to run: DROP TABLE leaves a dropped staging table's
	// blobs in the store, so the live heap grows with every load.
	loadEvery = 1500 * time.Millisecond
)

var coldTenants = []string{"t1", "t2"}

// runServeCold is the apollod stack in-process serving two tenants whose
// segments do not fit the shared buffer-pool budget. Two BI connections
// alternate tenants and stream the SSB queries over HTTP; every loadEvery
// each connection's next request is instead a bulk CSV load into its own
// staging table.
func runServeCold(e *env) (*outcome, error) {
	o := newOutcome()
	sc := e.scale
	data := make([]*workload.SSBData, len(coldTenants))
	sums := make([]string, len(coldTenants))
	for i := range data {
		data[i] = workload.GenSSB(sc.coldSF, e.seed*31+int64(i))
		sums[i] = fmt.Sprintf("%016x", checksum(data[i]))
	}
	chunk := workload.GenSSB(float64(sc.chunkRows)/60000, e.seed*31+99).Lineorder[:sc.chunkRows]
	csv := csvChunk(chunk)
	o.facts["scale"] = map[string]any{"sf_per_tenant": sc.coldSF, "row_group": sc.coldRowGroup,
		"cache_bytes": sc.coldCache, "chunk_rows": sc.chunkRows, "conns": coldConns}
	o.facts["dataset_checksum"] = sums
	e.phase("generate")

	// Row-mode oracle per tenant, on an embedded copy of the same data.
	oracles := make([]map[string][]string, len(coldTenants))
	for i, d := range data {
		cfg := apollo.DefaultConfig()
		cfg.Mode = apollo.ModeRow
		cfg.TupleMoverInterval = 0
		db := apollo.Open(cfg)
		var err error
		for _, t := range ssbTables(d) {
			var tbl *apollo.Table
			if tbl, err = db.CreateTable(t.name, t.schema); err == nil {
				err = tbl.BulkLoad(t.rows)
			}
			if err != nil {
				break
			}
		}
		if err == nil {
			oracles[i], err = rowOracle(db)
		}
		db.Close()
		if err != nil {
			return nil, err
		}
	}

	e.phase("oracle")
	var setups []float64
	var stack *coldStack
	for rep := 0; rep < sc.setupReps; rep++ {
		root := filepath.Join(e.workDir, fmt.Sprintf("cold-%d", rep))
		settle()
		start := time.Now()
		s, err := startCold(root, sc, data)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < sc.setupReps-1 {
			s.close()
			os.RemoveAll(root)
			continue
		}
		stack = s
	}
	defer stack.close()
	e.phase("setup")
	o.metrics["setup_s"] = median(setups)
	o.facts["setup_s_all"] = setups
	rows := 0
	for _, d := range data {
		for _, t := range ssbTables(d) {
			rows += len(t.rows)
		}
	}
	o.metrics["disk_bytes_per_row"] = float64(dirBytes(filepath.Join(stack.root, "t1", "blobs"))+
		dirBytes(filepath.Join(stack.root, "t2", "blobs"))) / float64(rows)
	data, chunk = nil, nil

	conns := make([]*coldConn, coldConns)
	for c := range conns {
		conns[c] = &coldConn{e: e, id: c, csv: csv, chunkRows: sc.chunkRows, oracles: oracles,
			rng: rand.New(rand.NewSource(e.seed*131 + int64(c)))}
		for _, t := range coldTenants {
			conns[c].clients = append(conns[c].clients, client.New(stack.base, "key-"+t))
		}
	}
	for _, c := range conns { // warm-up: one pass per tenant, checked
		for ti := range coldTenants {
			for _, q := range workload.SSBQueries() {
				if err := c.query(ti, q, false); err != nil {
					return nil, fmt.Errorf("warm-up %s on %s: %w", q.Name, coldTenants[ti], err)
				}
			}
		}
	}

	e.phase("warmup")
	settle()
	before := snapshotCounters()
	start := time.Now()
	deadline := start.Add(e.window)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *coldConn) {
			defer wg.Done()
			c.loop(start, deadline)
		}(c)
	}
	wg.Wait()
	end := time.Now()
	dl := delta{before, snapshotCounters()}
	o.metrics["heap_live_mb"] = heapLiveMB()

	var qLat, loadLat, opLat samples
	var ingestRows, direct float64
	var serverMs, wireMs, ingest []float64
	for _, c := range conns {
		qLat.all = append(qLat.all, c.qLat.all...)
		opLat.all = append(opLat.all, c.qLat.all...)
		loadLat.all = append(loadLat.all, c.loadLat.all...)
		opLat.all = append(opLat.all, c.loadLat.all...)
		o.attempted += c.attempted
		o.failed += c.failed
		o.mismatch = append(o.mismatch, c.mismatch...)
		ingestRows += c.ingestRows
		ingest = append(ingest, c.ingest...)
		direct += c.direct
		serverMs = append(serverMs, c.serverMs...)
		wireMs = append(wireMs, c.wireMs...)
	}
	o.metrics["queries_per_s"] = qLat.rate(start, end)
	latencyMetrics(o, &qLat, 1, "query_p50_ms", 0.95, "query_p95_ms")
	o.metrics["ingest_rows_per_s"] = median(ingest)
	// The window's durable commits are its loads, one commit each. Their
	// count is set by the load schedule, so txn.commits_per_s reads 0.
	latencyMetrics(o, &loadLat, 1, "txn.commit_p50_ms", 0.99, "txn.commit_p99_ms")
	windowMetrics(o, dl, float64(o.attempted), float64(qLat.n()), &opLat, start, end)
	o.metrics["load.server_ms"] = median(serverMs)
	o.metrics["load.wire_ms"] = median(wireMs)
	o.metrics["load.direct_ratio"] = ratio(direct, ingestRows)
	o.facts["loads"] = len(serverMs)

	e.phase("window")
	if e.trace != nil {
		o.facts["end_to_end"] = pick(o.metrics, endToEnd)
		o.metrics["sql.parse_us"] = 1000 * e.trace.medianMs("sql.Parse")
		o.metrics["exec.run_ms"] = e.trace.medianMs("server.statement")
		o.metrics["server.ttfb_ms"] = e.trace.medianMs("server.first_row")
		if err := layerProbes(e, o); err != nil {
			return nil, err
		}
		e.phase("layer_probes")
	}
	// Compile, operator and transaction internals run inside the server, out
	// of the client's sight; the window holds no transactions to charge WAL
	// work to.
	setZero(o, "plan.compile_ms", "exec.scan_wall_ms", "exec.join_wall_ms", "exec.agg_wall_ms",
		"exec.exchange_busy_ratio", "scan.bloom_pass_ratio", "txn.exec_ms", "txn.commit_ms",
		"txn.commits_per_s", "txn.conflict_ratio", "wal.fsyncs_per_commit", "wal.bytes_per_commit")
	return o, nil
}

// coldStack is the in-process apollod: server, HTTP listener, tenant root.
type coldStack struct {
	root string
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startCold starts the server on a loopback port and loads every tenant's
// SSB tables through /v1/load.
func startCold(root string, sc scale, data []*workload.SSBData) (*coldStack, error) {
	tpl := apollo.DefaultConfig()
	tpl.Parallel = 2
	tpl.FsyncPolicy = "always"
	keys := map[string]string{}
	for _, t := range coldTenants {
		keys[t] = "key-" + t
	}
	srv, err := server.New(server.Config{Root: root, Tenants: keys, DB: tpl, CacheBytes: sc.coldCache,
		Limits: broker.Limits{PerTenant: coldConns, Global: coldConns, QueueDepth: coldConns}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &coldStack{root: root, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	ctx := context.Background()
	for i, t := range coldTenants {
		cl := client.New(s.base, keys[t])
		for _, tb := range ssbTables(data[i]) {
			with := ""
			if tb.name == "lineorder" {
				with = fmt.Sprintf("rowgroup_size = %d, bulk_threshold = 1024", sc.coldRowGroup)
			}
			if _, err := cl.Exec(ctx, createSQL(tb.name, tb.schema, with)); err != nil {
				s.close()
				return nil, fmt.Errorf("create %s.%s: %w", t, tb.name, err)
			}
			res, err := cl.Load(ctx, tb.name, "binary", bytes.NewReader(frames(tb.schema, tb.rows)),
				map[string]string{"batch_rows": strconv.Itoa(sc.coldRowGroup)})
			if err == nil && res.RowsLoaded != len(tb.rows) {
				err = fmt.Errorf("%d rows acked, want %d", res.RowsLoaded, len(tb.rows))
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("load %s.%s: %w", t, tb.name, err)
			}
		}
		for c := 0; c < coldConns; c++ {
			if _, err := cl.Exec(ctx, createSQL(stagingName(c), workload.LineorderSchema, "")); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *coldStack) close() {
	s.hs.Shutdown(context.Background())
	<-s.done
	s.srv.Close()
}

// coldConn is one BI connection's closed loop and its tallies.
type coldConn struct {
	e         *env
	id        int
	clients   []*client.Client // one per tenant
	csv       []byte
	chunkRows int
	oracles   []map[string][]string
	rng       *rand.Rand

	attempted, failed  int64
	qLat, loadLat      samples
	ingestRows, direct float64
	ingest             []float64 // acked rows per second of each load
	serverMs, wireMs   []float64
	mismatch           []string
}

func stagingName(conn int) string { return fmt.Sprintf("staging_%d", conn) }

// loop issues requests until deadline, alternating tenants.
func (c *coldConn) loop(start, deadline time.Time) {
	var order []workload.Query
	nextLoad := start.Add(loadEvery * time.Duration(c.id+1) / coldConns) // staggered
	for k := 0; time.Now().Before(deadline); k++ {
		ti := (k + c.id) % len(coldTenants)
		c.attempted++
		var err error
		if !time.Now().Before(nextLoad) {
			nextLoad = nextLoad.Add(loadEvery)
			err = c.load(ti)
		} else {
			if len(order) == 0 {
				order = queryOrder(c.rng)
			}
			err = c.query(ti, order[0], true)
			order = order[1:]
		}
		if err != nil {
			c.failed++
			var ce *client.Error
			if !errors.As(err, &ce) || !ce.Overloaded() {
				c.mismatch = append(c.mismatch, err.Error())
			}
		}
	}
}

// query streams one SSB query and checks it against the oracle.
func (c *coldConn) query(ti int, q workload.Query, measure bool) error {
	tr := c.e.trace
	op := tr.newOp()
	root := tr.start("client.QueryStream", 0, op)
	if tr != nil {
		ps := time.Now()
		_, err := sql.Parse(q.SQL)
		tr.add("sql.Parse", root, op, ps, time.Now())
		if err != nil {
			return err
		}
	}
	var got []string
	var first time.Time
	t0 := time.Now()
	res, err := c.clients[ti].QueryStream(context.Background(), q.SQL, nil, nil, func(row []any) error {
		if first.IsZero() {
			first = time.Now()
		}
		got = append(got, canonWire(row))
		return nil
	})
	t1 := time.Now()
	tr.end(root)
	if err != nil {
		return fmt.Errorf("%s on %s: %w", q.Name, coldTenants[ti], err)
	}
	if !first.IsZero() {
		tr.add("server.first_row", root, op, t0, first)
	}
	tr.add("server.statement", root, op, t1.Add(-time.Duration(res.ElapsedMs*1e6)), t1)
	if measure {
		c.qLat.add(t0, t1)
	}
	if want := c.oracles[ti][q.Name]; !slices.Equal(got, want) {
		return fmt.Errorf("%s on %s: %d rows differ from the row-mode answer (%d rows)", q.Name, coldTenants[ti], len(got), len(want))
	}
	return nil
}

// load recreates this connection's staging table and bulk-loads the CSV
// chunk into it, so each load takes the direct path and memory stays flat.
func (c *coldConn) load(ti int) error {
	tr := c.e.trace
	ctx := context.Background()
	cl := c.clients[ti]
	name := stagingName(c.id)
	op := tr.newOp()
	root := tr.start("client.Load", 0, op)
	defer tr.end(root)
	for _, stmt := range []string{"DROP TABLE " + name, createSQL(name, workload.LineorderSchema, "")} {
		if _, err := cl.Exec(ctx, stmt); err != nil {
			return fmt.Errorf("%s on %s: %w", stmt, coldTenants[ti], err)
		}
	}
	t0 := time.Now()
	res, err := cl.Load(ctx, name, "csv", bytes.NewReader(c.csv), nil)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("load on %s: %w", coldTenants[ti], err)
	}
	if res.RowsLoaded != c.chunkRows {
		return fmt.Errorf("load on %s: %d rows acked, want %d", coldTenants[ti], res.RowsLoaded, c.chunkRows)
	}
	tr.add("server.load", root, op, t1.Add(-time.Duration(res.ElapsedMs*1e6)), t1)
	c.loadLat.add(t0, t1)
	c.ingestRows += float64(res.RowsLoaded)
	c.ingest = append(c.ingest, float64(res.RowsLoaded)/t1.Sub(t0).Seconds())
	c.direct += float64(res.RowsDirect)
	c.serverMs = append(c.serverMs, res.ElapsedMs)
	c.wireMs = append(c.wireMs, float64(t1.Sub(t0).Nanoseconds())/1e6-res.ElapsedMs)
	return nil
}

// dirBytes totals the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	ents, _ := os.ReadDir(dir)
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
