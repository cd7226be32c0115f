package batchexec

import (
	"math/rand"
	"testing"

	"apollo/internal/exec"
	"apollo/internal/exec/rowexec"
	"apollo/internal/expr"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
)

// Property: for random range predicates, a scan with encoded-domain pushdown
// produces exactly the rows a residual-only scan produces — pushdown is a
// pure optimization, never a semantic change.
func TestQuickPushdownEquivalence(t *testing.T) {
	rows := makeRows(4000, 99)
	tb := loadTable(t, rows)
	rng := rand.New(rand.NewSource(123))

	for trial := 0; trial < 40; trial++ {
		// Random closed range on a random pushable column.
		col := []int{0, 1, 4}[rng.Intn(3)] // id, grp, d — integer-family
		typ := testSchema().Cols[col].Typ
		var lo, hi sqltypes.Value
		switch col {
		case 0:
			a, b := int64(rng.Intn(4000)), int64(rng.Intn(4000))
			if a > b {
				a, b = b, a
			}
			lo, hi = sqltypes.Value{Typ: typ, I: a}, sqltypes.Value{Typ: typ, I: b}
		case 1:
			a, b := int64(rng.Intn(50)), int64(rng.Intn(50))
			if a > b {
				a, b = b, a
			}
			lo, hi = sqltypes.Value{Typ: typ, I: a}, sqltypes.Value{Typ: typ, I: b}
		default:
			a, b := int64(9000+rng.Intn(1000)), int64(9000+rng.Intn(1000))
			if a > b {
				a, b = b, a
			}
			lo, hi = sqltypes.Value{Typ: typ, I: a}, sqltypes.Value{Typ: typ, I: b}
		}
		// Unbounded sides sometimes.
		if rng.Intn(4) == 0 {
			lo = sqltypes.NewNull(typ)
		}
		if rng.Intn(4) == 0 {
			hi = sqltypes.NewNull(typ)
		}

		cols := []int{0, col}
		if col == 0 {
			cols = []int{0}
		}

		pushed := NewScan(tb.Snapshot(), cols)
		pushed.Pushdowns = []Pushdown{{Col: col, Lo: lo, Hi: hi}}

		// Residual-only equivalent (bound to scan output positions).
		outPos := 0
		for i, c := range cols {
			if c == col {
				outPos = i
			}
		}
		ref := expr.NewColRef(outPos, "c", typ)
		var conj []expr.Expr
		if !lo.Null {
			conj = append(conj, expr.NewCmp(expr.GE, ref, expr.NewConst(lo)))
		}
		if !hi.Null {
			conj = append(conj, expr.NewCmp(expr.LE, ref, expr.NewConst(hi)))
		}
		plain := NewScan(tb.Snapshot(), cols)
		if len(conj) == 1 {
			plain.Residual = conj[0]
		} else if len(conj) == 2 {
			plain.Residual = expr.NewAnd(conj...)
		}

		a := gotRows(t, pushed)
		b := gotRows(t, plain)
		if !mapsEqual(a, b) {
			t.Fatalf("trial %d: pushdown [%v..%v] on col %d diverged: %d vs %d distinct keys",
				trial, lo, hi, col, len(a), len(b))
		}
	}
}

// Property: string equality pushdown (dictionary code lookup) matches the
// residual evaluation, including values absent from the dictionary.
func TestQuickStringPushdownEquivalence(t *testing.T) {
	rows := makeRows(3000, 101)
	tb := loadTable(t, rows)
	candidates := append(append([]string{}, regions...), "atlantis", "", "n")
	for _, s := range candidates {
		v := sqltypes.NewString(s)
		pushed := NewScan(tb.Snapshot(), []int{0, 3})
		pushed.Pushdowns = []Pushdown{{Col: 3, Lo: v, Hi: v}}
		plain := NewScan(tb.Snapshot(), []int{0, 3})
		plain.Residual = expr.NewCmp(expr.EQ, expr.NewColRef(1, "region", sqltypes.String), expr.NewConst(v))
		if !mapsEqual(gotRows(t, pushed), gotRows(t, plain)) {
			t.Fatalf("string pushdown diverged for %q", s)
		}
	}
}

// Property: the scan's delete-bitmap masking plus pushdowns never resurrect
// a deleted row and never lose a live one, under random delete patterns.
func TestQuickDeletesUnderPushdown(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := makeRows(2000, 103)
	tb := loadTable(t, rows) // loadTable already deletes id%20==13
	// Random extra deletes.
	deleted := map[int64]bool{}
	for _, r := range rows {
		if r[0].I%20 == 13 {
			deleted[r[0].I] = true
		}
	}
	tb.DeleteWhere(func(r sqltypes.Row) bool {
		if rng.Intn(10) == 0 && !deleted[r[0].I] {
			deleted[r[0].I] = true
			return true
		}
		return false
	})

	scan := NewScan(tb.Snapshot(), []int{0})
	scan.Pushdowns = []Pushdown{{Col: 0, Lo: sqltypes.NewInt(100), Hi: sqltypes.NewInt(1500)}}
	seen := map[int64]bool{}
	rowsOut, err := Drain(scan)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rowsOut {
		id := r[0].I
		if deleted[id] {
			t.Fatalf("deleted row %d resurrected", id)
		}
		if id < 100 || id > 1500 {
			t.Fatalf("out-of-range row %d", id)
		}
		if seen[id] {
			t.Fatalf("duplicate row %d", id)
		}
		seen[id] = true
	}
	want := 0
	for _, r := range rows {
		if !deleted[r[0].I] && r[0].I >= 100 && r[0].I <= 1500 {
			want++
		}
	}
	if len(seen) != want {
		t.Fatalf("rows = %d, want %d", len(seen), want)
	}
}

// Property: dictionary-predicate pushdown (LIKE, IN, <>) matches residual
// evaluation exactly, including NULL handling.
func TestQuickDictPredEquivalence(t *testing.T) {
	rows := makeRows(3000, 107)
	tb := loadTable(t, rows)
	preds := []expr.Expr{
		expr.NewLike(expr.NewColRef(0, "region", sqltypes.String), "%th", false),
		expr.NewLike(expr.NewColRef(0, "region", sqltypes.String), "n%", true),
		expr.NewInList(expr.NewColRef(0, "region", sqltypes.String),
			[]sqltypes.Value{sqltypes.NewString("east"), sqltypes.NewString("west")}),
		expr.NewCmp(expr.NE, expr.NewColRef(0, "region", sqltypes.String), expr.NewConst(sqltypes.NewString("south"))),
		expr.NewOr(
			expr.NewCmp(expr.EQ, expr.NewColRef(0, "region", sqltypes.String), expr.NewConst(sqltypes.NewString("north"))),
			expr.NewLike(expr.NewColRef(0, "region", sqltypes.String), "%st", false)),
	}
	for pi, pred := range preds {
		pushed := NewScan(tb.Snapshot(), []int{0, 3})
		pushed.DictPreds = []DictPred{{Col: 3, Pred: expr.Remap(pred, map[int]int{0: 0})}}
		plain := NewScan(tb.Snapshot(), []int{0, 3})
		plain.Residual = expr.Remap(pred, map[int]int{0: 1})
		a, b := gotRows(t, pushed), gotRows(t, plain)
		if !mapsEqual(a, b) {
			t.Fatalf("pred %d diverged: %d vs %d keys", pi, len(a), len(b))
		}
		// The dict path must have filtered before materialization.
		if pushed.Stats.RowsAfterRange >= pushed.Stats.RowsConsidered && len(a) < 2000 {
			t.Fatalf("pred %d: no encoded-domain narrowing", pi)
		}
	}
}

// --- Late-materialization parity: batch mode (dict codes end to end) vs the
// row engine (plain strings) must agree exactly on string-heavy plans. ---

func strSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "cat", Typ: sqltypes.String, Nullable: true},
		sqltypes.Column{Name: "val", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "num", Typ: sqltypes.Int64, Nullable: true},
		sqltypes.Column{Name: "fnum", Typ: sqltypes.Float64, Nullable: true},
	)
}

// makeStrRows produces rows whose string column draws from cats with ~1/12
// NULLs mixed in. num is a small integer and fnum a float that is integral
// (equal to some num) half the time and halfway between two integers
// otherwise, both with ~1/10 NULLs.
func makeStrRows(n int, seed int64, cats []string) []sqltypes.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		cat := sqltypes.NewString(cats[rng.Intn(len(cats))])
		if rng.Intn(12) == 0 {
			cat = sqltypes.NewNull(sqltypes.String)
		}
		num := sqltypes.NewInt(int64(rng.Intn(20)))
		if rng.Intn(10) == 0 {
			num = sqltypes.NewNull(sqltypes.Int64)
		}
		fnum := sqltypes.NewFloat(float64(rng.Intn(20)) + 0.5*float64(rng.Intn(2)))
		if rng.Intn(10) == 0 {
			fnum = sqltypes.NewNull(sqltypes.Float64)
		}
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), cat, sqltypes.NewInt(int64(rng.Intn(1000))), num, fnum}
	}
	return rows
}

// loadStrTable bulk-loads 90% into small compressed row groups (several
// dictionary-coded segments) and trickles the rest through the delta store, so
// batch scans emit a mix of coded and materialized string vectors.
func loadStrTable(t *testing.T, rows []sqltypes.Row) *table.Table {
	t.Helper()
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	opts := table.Options{RowGroupSize: 400, BulkLoadThreshold: 100, Columnstore: table.DefaultOptions().Columnstore}
	tb := table.New(store, "s", strSchema(), opts)
	split := len(rows) * 9 / 10
	if err := tb.BulkLoad(rows[:split]); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertMany(rows[split:]); err != nil {
		t.Fatal(err)
	}
	return tb
}

func rowModeRows(t *testing.T, op rowexec.Operator) map[string]int {
	t.Helper()
	rows, err := rowexec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return rowMultiset(rows)
}

var catAggs = []exec.AggSpec{
	{Kind: exec.CountStar, Name: "n"},
	{Kind: exec.Sum, Arg: expr.NewColRef(1, "val", sqltypes.Int64), Name: "s"},
	{Kind: exec.Min, Arg: expr.NewColRef(1, "val", sqltypes.Int64), Name: "lo"},
}

// keyCols are the scanned columns of every key-shape property: positions 0-3
// of the scan output are cat, val, num and fnum.
var keyCols = []int{1, 2, 3, 4}

func keyRef(pos int) expr.Expr {
	c := strSchema().Cols[keyCols[pos]]
	return expr.NewColRef(pos, c.Name, c.Typ)
}

// keyShapes are the key column sets (positions in keyCols) the grouping and
// join properties run: one string, one integer and one float key with NULLs,
// and multi-column mixes of the three.
var keyShapes = []struct {
	name string
	keys []int
}{
	{"cat", []int{0}},
	{"num", []int{2}},
	{"fnum", []int{3}},
	{"cat+num", []int{0, 2}},
	{"num+fnum+cat", []int{2, 3, 0}},
}

// distinctAggs adds DISTINCT aggregates over a string, an integer and a float
// argument to catAggs (all positions in keyCols).
var distinctAggs = append(append([]exec.AggSpec{}, catAggs...),
	exec.AggSpec{Kind: exec.Count, Arg: keyRef(0), Distinct: true, Name: "dcat"},
	exec.AggSpec{Kind: exec.Sum, Arg: keyRef(2), Distinct: true, Name: "dnum"},
	exec.AggSpec{Kind: exec.Max, Arg: keyRef(3), Distinct: true, Name: "dfnum"},
)

// twoDictTables loads two string tables separately, so each has its own
// dictionary; a union of both feeds a grouping the same strings coded under
// two dictionaries plus materialized delta rows.
func twoDictTables(t *testing.T, n int, seed int64, cats []string) (*table.Table, *table.Table) {
	return loadStrTable(t, makeStrRows(n, seed, cats)), loadStrTable(t, makeStrRows(n/2, seed+1, cats))
}

func batchUnion(a, b *table.Table) Operator {
	return &UnionAll{Ins: []Operator{NewScan(a.Snapshot(), keyCols), NewScan(b.Snapshot(), keyCols)}}
}

func rowUnion(a, b *table.Table) rowexec.Operator {
	return &rowexec.UnionAll{Ins: []rowexec.Operator{rowexec.NewScan(a.Snapshot(), nil, keyCols), rowexec.NewScan(b.Snapshot(), nil, keyCols)}}
}

// rowAgg is the row-engine oracle for grouping on keys (positions in keyCols).
func rowAgg(in rowexec.Operator, keys []int, aggs []exec.AggSpec) rowexec.Operator {
	exprs := make([]expr.Expr, len(keys))
	for i, k := range keys {
		exprs[i] = keyRef(k)
	}
	return rowexec.NewHashAggregate(in, exprs, keyNames(keys), aggs)
}

func keyNames(keys []int) []string {
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = strSchema().Cols[keyCols[k]].Name
	}
	return names
}

// Property: GROUP BY — grouping on raw dictionary codes from two dictionaries
// with materialized delta rows mixed in, on string, integer and float keys and
// their multi-column mixes — matches the row engine, NULL groups included.
func TestQuickStringGroupByParity(t *testing.T) {
	cats := []string{"north", "south", "east", "west", "axis", "blade", "crest", "dune", "ember", "frost"}
	a, b := twoDictTables(t, 4000, 211, cats)

	for _, sh := range keyShapes {
		scan := NewScan(a.Snapshot(), keyCols)
		scan.Stats = &ScanStats{}
		in := &UnionAll{Ins: []Operator{scan, NewScan(b.Snapshot(), keyCols)}}
		batch := gotRows(t, NewHashAgg(in, sh.keys, keyNames(sh.keys), catAggs))
		want := rowModeRows(t, rowAgg(rowUnion(a, b), sh.keys, catAggs))
		if !mapsEqual(batch, want) {
			t.Fatalf("%s GROUP BY diverged: batch %d keys, row %d keys", sh.name, len(batch), len(want))
		}
		if scan.Stats.StringColsCoded == 0 {
			t.Fatal("scan emitted no coded string vectors — late materialization inactive")
		}
	}
}

// Property: DISTINCT — grouping with no aggregates, and DISTINCT aggregates
// over string, integer and float arguments per group — matches the row engine
// for every key shape.
func TestQuickStringDistinctParity(t *testing.T) {
	cats := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	a, b := twoDictTables(t, 3000, 223, cats)

	for _, sh := range keyShapes {
		for _, aggs := range [][]exec.AggSpec{nil, distinctAggs} {
			batch := gotRows(t, NewHashAgg(batchUnion(a, b), sh.keys, keyNames(sh.keys), aggs))
			want := rowModeRows(t, rowAgg(rowUnion(a, b), sh.keys, aggs))
			if !mapsEqual(batch, want) {
				t.Fatalf("%s DISTINCT (%d aggs) diverged: batch %d keys, row %d keys", sh.name, len(aggs), len(batch), len(want))
			}
		}
	}
	// Scalar DISTINCT aggregates: one group over the whole two-dictionary input.
	batch := gotRows(t, NewHashAgg(batchUnion(a, b), nil, nil, distinctAggs))
	if want := rowModeRows(t, rowAgg(rowUnion(a, b), nil, distinctAggs)); !mapsEqual(batch, want) {
		t.Fatalf("scalar DISTINCT aggregates diverged: %v vs %v", batch, want)
	}
}

// joinShapes are the join keys the join properties run, as positions in
// keyCols on the probe and build side: a string key across two dictionaries,
// integer keys against integral and non-integral float keys (both ways), and
// a multi-column key — all with NULLs on both sides.
var joinShapes = []struct {
	name                 string
	probeKeys, buildKeys []int
}{
	{"cat", []int{0}, []int{0}},
	{"num=fnum", []int{2}, []int{3}},
	{"fnum=num", []int{3}, []int{2}},
	{"cat+num", []int{0, 2}, []int{0, 2}},
}

var joinTypes = []exec.JoinType{exec.Inner, exec.LeftOuter, exec.RightOuter, exec.FullOuter, exec.LeftSemi, exec.LeftAnti}

// rowJoin is the row-engine oracle for a join over keyCols scans.
func rowJoin(t *testing.T, probe, build *table.Table, probeKeys, buildKeys []int, jt exec.JoinType) rowexec.Operator {
	t.Helper()
	pk := make([]expr.Expr, len(probeKeys))
	bk := make([]expr.Expr, len(buildKeys))
	for i := range probeKeys {
		pk[i], bk[i] = keyRef(probeKeys[i]), keyRef(buildKeys[i])
	}
	j, err := rowexec.NewHashJoin(rowexec.NewScan(probe.Snapshot(), nil, keyCols), rowexec.NewScan(build.Snapshot(), nil, keyCols), pk, bk, jt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// batchJoin is the batch join over keyCols scans; dop > 0 sets Parallel, and
// a positive grant sets a memory grant with a spill store.
func batchJoin(t *testing.T, probe, build *table.Table, probeKeys, buildKeys []int, jt exec.JoinType, dop int, grant int64) *HashJoin {
	t.Helper()
	j, err := NewHashJoin(NewScan(probe.Snapshot(), keyCols), NewScan(build.Snapshot(), keyCols), probeKeys, buildKeys, jt, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Parallel = dop
	if grant > 0 {
		j.Tracker = NewTracker(grant)
		j.SpillStore = storage.NewStore(0)
	}
	return j
}

// Property: joining matches the row engine for every join type and key shape.
// The two tables are loaded separately, so their dictionaries are distinct
// objects: the probe side crosses dictionaries, delta rows exercise the
// materialized forms, and int/float keys meet on their integral values.
func TestQuickStringJoinParity(t *testing.T) {
	probeCats := []string{"north", "south", "east", "west", "inland", "offshore"}
	buildCats := []string{"east", "west", "inland", "highland", "lowland"}
	ptb := loadStrTable(t, makeStrRows(1200, 307, probeCats))
	btb := loadStrTable(t, makeStrRows(400, 311, buildCats))

	for _, sh := range joinShapes {
		for _, jt := range joinTypes {
			batch := gotRows(t, batchJoin(t, ptb, btb, sh.probeKeys, sh.buildKeys, jt, 0, 0))
			want := rowModeRows(t, rowJoin(t, ptb, btb, sh.probeKeys, sh.buildKeys, jt))
			if !mapsEqual(batch, want) {
				t.Fatalf("%s %v join diverged: batch %d keys, row %d keys", sh.name, jt, len(batch), len(want))
			}
		}
	}
}

// Property: a same-table self join (both sides share one dictionary — the
// pure code-space path) matches the row engine, on the string key alone and
// on a multi-column key.
func TestQuickStringSelfJoinParity(t *testing.T) {
	cats := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	tb := loadStrTable(t, makeStrRows(700, 401, cats))

	for _, keys := range [][]int{{0}, {0, 2}} {
		for _, jt := range []exec.JoinType{exec.Inner, exec.LeftAnti} {
			batch := gotRows(t, batchJoin(t, tb, tb, keys, keys, jt, 0, 0))
			if want := rowModeRows(t, rowJoin(t, tb, tb, keys, keys, jt)); !mapsEqual(batch, want) {
				t.Fatalf("%v self join on %v diverged: batch %d keys, row %d keys", jt, keys, len(batch), len(want))
			}
		}
	}
}

// Property: grouping (plain and DISTINCT) and joining stay correct when forced
// through the spill path (tiny memory grant), which round-trips dictionary
// codes through spill files, for every key shape and join type.
func TestQuickStringSpillParity(t *testing.T) {
	cats := []string{"red", "orange", "yellow", "green", "blue", "indigo", "violet"}
	a, b := twoDictTables(t, 2000, 503, cats)

	for _, sh := range keyShapes {
		for _, aggs := range [][]exec.AggSpec{catAggs, distinctAggs} {
			agg := NewHashAgg(batchUnion(a, b), sh.keys, keyNames(sh.keys), aggs)
			agg.Tracker = NewTracker(1 << 10)
			agg.SpillStore = storage.NewStore(0)
			batch := gotRows(t, agg)
			if agg.Tracker.Spills() == 0 {
				t.Fatalf("%s: aggregation did not spill under a 1 KiB grant", sh.name)
			}
			if want := rowModeRows(t, rowAgg(rowUnion(a, b), sh.keys, aggs)); !mapsEqual(batch, want) {
				t.Fatalf("spilled %s GROUP BY (%d aggs) diverged: batch %d keys, row %d keys", sh.name, len(aggs), len(batch), len(want))
			}
		}
	}

	ptb := loadStrTable(t, makeStrRows(2000, 509, cats))
	btb := loadStrTable(t, makeStrRows(500, 521, cats))
	for _, sh := range joinShapes {
		for _, jt := range joinTypes {
			bj := batchJoin(t, ptb, btb, sh.probeKeys, sh.buildKeys, jt, 0, 1<<10)
			jbatch := gotRows(t, bj)
			if bj.Tracker.Spills() == 0 {
				t.Fatalf("%s %v: join did not spill under a 1 KiB grant", sh.name, jt)
			}
			if jwant := rowModeRows(t, rowJoin(t, ptb, btb, sh.probeKeys, sh.buildKeys, jt)); !mapsEqual(jbatch, jwant) {
				t.Fatalf("spilled %s %v join diverged: batch %d keys, row %d keys", sh.name, jt, len(jbatch), len(jwant))
			}
		}
	}
}
