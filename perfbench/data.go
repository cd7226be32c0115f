package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"apollo"
	"apollo/internal/load"
	"apollo/internal/sqltypes"
	"apollo/internal/workload"
)

// scale sizes every workload. fullScale is what the benchmark runs; the
// tests run the same code at tinyScale.
type scale struct {
	setupReps int // set-ups per run; setup_s is their median

	ssbSF       float64 // ssb_warm: SSB scale (1.0 = 60k lineorder rows)
	ssbRowGroup int

	oltpSF       float64 // oltp_trickle: lineorder rows preloaded into the fact table
	oltpSetups   int     // its set-ups are cheap, so it takes more of them
	oltpRowGroup int     // small, so trickle inserts close delta stores the mover compresses

	coldSF       float64 // serve_cold: SSB scale per tenant
	coldRowGroup int
	coldCache    int64 // process-wide buffer-pool budget, below one tenant's data
	chunkRows    int   // rows per in-window /v1/load (above the 102,400-row bulk threshold)

	probeSF   float64 // SSB scale of the standalone colstore/storage probe data
	walProbes int     // appends timed by the standalone WAL probe
}

var fullScale = scale{
	setupReps:    3,
	ssbSF:        20,
	ssbRowGroup:  1 << 20,
	oltpSF:       4,
	oltpSetups:   5,
	oltpRowGroup: 4096,
	coldSF:       5,
	coldRowGroup: 100_000,
	coldCache:    2 << 20,
	chunkRows:    120_000,
	probeSF:      4,
	walProbes:    200,
}

var tinyScale = scale{
	setupReps:    2,
	ssbSF:        0.2,
	ssbRowGroup:  4096,
	oltpSF:       0.2,
	oltpSetups:   2,
	oltpRowGroup: 1024,
	coldSF:       0.2,
	coldRowGroup: 4096,
	coldCache:    64 << 10,
	chunkRows:    5000,
	probeSF:      0.1,
	walProbes:    10,
}

// ssbTables lists the SSB tables with their rows, dimensions first.
func ssbTables(d *workload.SSBData) []struct {
	name   string
	schema *sqltypes.Schema
	rows   []sqltypes.Row
} {
	return []struct {
		name   string
		schema *sqltypes.Schema
		rows   []sqltypes.Row
	}{
		{"dwdate", workload.DateSchema, d.Date},
		{"customer", workload.CustomerSchema, d.Customer},
		{"supplier", workload.SupplierSchema, d.Supplier},
		{"part", workload.PartSchema, d.Part},
		{"lineorder", workload.LineorderSchema, d.Lineorder},
	}
}

// checksum fingerprints a generated dataset, so the tests can show that a
// seed fixes the data.
func checksum(d *workload.SSBData) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, t := range ssbTables(d) {
		for _, r := range t.rows {
			buf = sqltypes.EncodeRow(buf[:0], t.schema, r)
			h.Write(buf)
		}
	}
	return h.Sum64()
}

// frames encodes rows as the loader's binary input.
func frames(schema *sqltypes.Schema, rows []sqltypes.Row) []byte {
	var buf []byte
	for _, r := range rows {
		buf = load.AppendFrame(buf, schema, r)
	}
	return buf
}

// csvChunk encodes rows as CSV for /v1/load.
func csvChunk(rows []sqltypes.Row) []byte {
	var b strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(load.CSVField(v))
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// createSQL renders CREATE TABLE for a schema with table options.
func createSQL(name string, schema *sqltypes.Schema, with string) string {
	cols := make([]string, len(schema.Cols))
	for i, c := range schema.Cols {
		cols[i] = c.Name + " " + sqlType(c.Typ)
	}
	s := "CREATE TABLE " + name + " (" + strings.Join(cols, ", ") + ")"
	if with != "" {
		s += " WITH (" + with + ")"
	}
	return s
}

func sqlType(t sqltypes.Type) string {
	switch t {
	case sqltypes.Int64:
		return "BIGINT"
	case sqltypes.Float64:
		return "DOUBLE"
	case sqltypes.Date:
		return "DATE"
	case sqltypes.Bool:
		return "BOOLEAN"
	default:
		return "VARCHAR"
	}
}

// loadSSB creates the SSB tables in db and fills them: dimensions through
// the table API, lineorder through the bulk loader in row groups of
// rowGroup rows. It returns the lineorder load's result and wall time.
func loadSSB(db *apollo.DB, d *workload.SSBData, loFrames []byte, rowGroup int) (*apollo.LoadResult, time.Duration, error) {
	for _, t := range ssbTables(d) {
		tbl, err := db.CreateTable(t.name, t.schema)
		if err != nil {
			return nil, 0, err
		}
		if t.name != "lineorder" {
			if err := tbl.BulkLoad(t.rows); err != nil {
				return nil, 0, err
			}
		}
	}
	return timedLoad(db, "lineorder", loFrames, rowGroup, len(d.Lineorder))
}

// timedLoad bulk-loads binary frames and checks every row was acked.
func timedLoad(db *apollo.DB, table string, buf []byte, batchRows, want int) (*apollo.LoadResult, time.Duration, error) {
	start := time.Now()
	res, err := db.Load(context.Background(), apollo.LoadOptions{Table: table, Format: "binary",
		Reader: bytes.NewReader(buf), BatchRows: batchRows, MaxDeadLetters: -1})
	dur := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("load %s: %w", table, err)
	}
	if res.RowsLoaded != want {
		return nil, 0, fmt.Errorf("load %s: %d rows acked, want %d", table, res.RowsLoaded, want)
	}
	return res, dur, nil
}

// queryOrder is the seeded order of one pass over the 13 SSB queries.
func queryOrder(rng *rand.Rand) []workload.Query {
	qs := workload.SSBQueries()
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// canonRows renders result rows in one text form shared by embedded values
// and the NDJSON wire, so answers from either compare directly.
func canonRows(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = canonValue(v)
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func canonValue(v sqltypes.Value) string {
	if v.Null {
		return "NULL"
	}
	switch v.Typ {
	case sqltypes.Int64:
		return strconv.FormatInt(v.I, 10)
	case sqltypes.Float64:
		return strconv.FormatFloat(v.F, 'f', -1, 64)
	case sqltypes.Date:
		return sqltypes.DateToString(v.I)
	case sqltypes.Bool:
		return strconv.FormatBool(v.I != 0)
	default:
		return v.S
	}
}

// canonWire renders one decoded NDJSON row like canonRows.
func canonWire(row []any) string {
	parts := make([]string, len(row))
	for j, v := range row {
		switch x := v.(type) {
		case nil:
			parts[j] = "NULL"
		case float64:
			parts[j] = strconv.FormatFloat(x, 'f', -1, 64)
		case bool:
			parts[j] = strconv.FormatBool(x)
		case string:
			parts[j] = x
		default:
			parts[j] = fmt.Sprint(x)
		}
	}
	return strings.Join(parts, "|")
}

// rowOracle computes every SSB query's answer in row mode (ModeRow) on db.
func rowOracle(db *apollo.DB) (map[string][]string, error) {
	want := map[string][]string{}
	for _, q := range workload.SSBQueries() {
		res, err := db.Query(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q.Name, err)
		}
		if res.BatchMode {
			return nil, fmt.Errorf("oracle %s ran in batch mode", q.Name)
		}
		want[q.Name] = canonRows(res.Rows)
	}
	return want, nil
}
