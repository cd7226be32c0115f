package main

import (
	"context"
	"strings"
	"time"

	"apollo"
	"apollo/internal/sql"
)

// prepare compiles src through DB.Prepare. When traced it first times
// sql.Parse of the same text, then records the Prepare span with a
// plan.compile child covering Prepare's time beyond the parse.
func prepare(tr *tracer, db *apollo.DB, src string, parent, op int64) (*apollo.Stmt, error) {
	var parseDur time.Duration
	if tr != nil {
		ps := time.Now()
		_, err := sql.Parse(src)
		pe := time.Now()
		tr.add("sql.Parse", parent, op, ps, pe)
		if err != nil {
			return nil, err
		}
		parseDur = pe.Sub(ps)
	}
	ps := time.Now()
	st, err := db.Prepare(src)
	pe := time.Now()
	if tr != nil {
		id := tr.add("apollo.DB.Prepare", parent, op, ps, pe)
		tr.add("plan.compile", id, op, ps.Add(min(parseDur, pe.Sub(ps))), pe)
	}
	return st, err
}

// txExec runs one statement in tx under a span of the given name. A traced
// run also times parsing and compiling the statement on db (Tx.Exec does
// both internally, unseen).
func txExec(tr *tracer, db *apollo.DB, tx *apollo.Tx, stmt, name string, parent, op int64) (*apollo.Result, error) {
	if tr != nil {
		if _, err := prepare(tr, db, stmt, parent, op); err != nil {
			return nil, err
		}
	}
	id := tr.start(name, parent, op)
	res, err := tx.Exec(stmt)
	tr.end(id)
	return res, err
}

// txExecSpan names the span of a DML statement's Tx.Exec (txn.exec_ms).
const txExecSpan = "apollo.Tx.Exec"

// begin and commit time Tx boundaries as spans.
func begin(tr *tracer, db *apollo.DB, parent, op int64) (*apollo.Tx, error) {
	id := tr.start("apollo.DB.Begin", parent, op)
	defer tr.end(id)
	return db.Begin(context.Background())
}

func commit(tr *tracer, tx *apollo.Tx, parent, op int64) error {
	id := tr.start("apollo.Tx.Commit", parent, op)
	defer tr.end(id)
	return tx.Commit(context.Background())
}

// opWalls sums a query's inclusive operator wall times (OperatorStats.MaxWall)
// by operator kind.
func opWalls(ops []apollo.OperatorStats) (scan, join, agg float64) {
	for _, s := range ops {
		ms := float64(s.MaxWall.Nanoseconds()) / 1e6
		name := strings.ToLower(s.Op)
		switch {
		case strings.Contains(name, "scan"):
			scan += ms
		case strings.Contains(name, "join"):
			join += ms
		case strings.Contains(name, "agg"):
			agg += ms
		}
	}
	return
}

// setZero marks layers a workload does not exercise.
func setZero(o *outcome, names ...string) {
	for _, n := range names {
		o.metrics[n] = 0
	}
}
