package batchexec

import (
	"context"
	"slices"

	"apollo/internal/exec"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/vector"
)

// HashAgg is the batch-mode hash aggregation of §5, including scalar
// aggregation (no group-by), DISTINCT aggregates, and spilling: when the
// memory grant is exhausted, rows belonging to not-yet-seen groups are
// hash-partitioned to spill files and aggregated partition by partition after
// the input is consumed (hybrid hash aggregation), so memory pressure
// degrades throughput instead of failing the query.
//
// The grouping state lives in an aggTable so that ParallelAgg can run one
// table per exchange worker and merge the partial states afterwards.
type HashAgg struct {
	In      Operator
	GroupBy []int // input column indexes
	Names   []string
	Aggs    []exec.AggSpec // Arg exprs bound to the input schema

	Tracker    *Tracker
	SpillStore *storage.Store

	schema *sqltypes.Schema
	out    *Values
	table  *aggTable
}

// NewHashAgg builds a batch aggregation. Group-by keys are input columns;
// aggregate arguments are expressions over the input schema.
func NewHashAgg(in Operator, groupBy []int, names []string, aggs []exec.AggSpec) *HashAgg {
	return &HashAgg{In: in, GroupBy: groupBy, Names: names, Aggs: aggs,
		schema: aggOutputSchema(in.Schema(), groupBy, names, aggs)}
}

// aggOutputSchema is the output layout shared by HashAgg and ParallelAgg:
// group-by keys first, then one column per aggregate.
func aggOutputSchema(in *sqltypes.Schema, groupBy []int, names []string, aggs []exec.AggSpec) *sqltypes.Schema {
	cols := make([]sqltypes.Column, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		c := in.Cols[g]
		cols = append(cols, sqltypes.Column{Name: names[i], Typ: c.Typ, Nullable: true})
	}
	for _, a := range aggs {
		cols = append(cols, sqltypes.Column{Name: a.Name, Typ: a.ResultType(), Nullable: true})
	}
	return sqltypes.NewSchema(cols...)
}

// Schema implements Operator.
func (h *HashAgg) Schema() *sqltypes.Schema { return h.schema }

// aggAcc accumulates one aggregate of one group.
type aggAcc struct {
	count    int64
	sumI     int64
	sumF     float64
	min, max sqltypes.Value
	seen     bool
}

// add folds one non-NULL value into the state for Min/Max/Count (Sum/Avg use
// the vectorized loops; callers have already bumped count except for Min/Max
// paths that share this helper).
func (st *aggAcc) add(kind exec.AggKind, v sqltypes.Value) {
	switch kind {
	case exec.Sum, exec.Avg:
		st.sumI += v.I
		st.sumF += v.AsFloat()
	case exec.Min:
		if !st.seen || sqltypes.Compare(v, st.min) < 0 {
			st.min = v
		}
	case exec.Max:
		if !st.seen || sqltypes.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
	st.seen = true
}

// merge folds another partial state of the same aggregate into st. Counts and
// sums add; min/max compare under the seen flags. DISTINCT states are not
// mergeable (see ParallelizableAggs), so merge is only reached for specs
// without them.
func (st *aggAcc) merge(o *aggAcc) {
	st.count += o.count
	st.sumI += o.sumI
	st.sumF += o.sumF
	if o.seen {
		if !st.seen || sqltypes.Compare(o.min, st.min) < 0 {
			st.min = o.min
		}
		if !st.seen || sqltypes.Compare(o.max, st.max) > 0 {
			st.max = o.max
		}
		st.seen = true
	}
}

func (st *aggAcc) result(spec *exec.AggSpec) sqltypes.Value {
	switch spec.Kind {
	case exec.CountStar, exec.Count:
		return sqltypes.NewInt(st.count)
	case exec.Sum:
		switch {
		case st.count == 0:
			return sqltypes.NewNull(spec.ResultType())
		case spec.ResultType() == sqltypes.Float64:
			return sqltypes.NewFloat(st.sumF)
		default:
			return sqltypes.NewInt(st.sumI)
		}
	case exec.Avg:
		if st.count == 0 {
			return sqltypes.NewNull(sqltypes.Float64)
		}
		return sqltypes.NewFloat(st.sumF / float64(st.count))
	case exec.Min:
		if !st.seen {
			return sqltypes.NewNull(spec.ResultType())
		}
		return st.min
	default:
		if !st.seen {
			return sqltypes.NewNull(spec.ResultType())
		}
		return st.max
	}
}

const aggSpillPartitions = 8

// distinctCols are the key columns of a DISTINCT aggregate's seen-set:
// (group id, argument value).
var distinctCols = []int{0, 1}

// aggTable holds the grouping and accumulation state of one hash aggregation.
// A keyTable maps each group key to a dense group id, and every aggregate
// keeps its accumulators in an array indexed by that id. HashAgg drives one
// table over its whole input; ParallelAgg drives one table per exchange
// worker and merges them (mergeAggTables).
type aggTable struct {
	aggs       []exec.AggSpec
	groupBy    []int
	inSchema   *sqltypes.Schema
	tracker    *Tracker
	spillStore *storage.Store

	keys     *keyTable   // group key -> group id; nil for scalar aggregation
	ngroups  int         // scalar aggregation has its one group from the start
	accs     [][]aggAcc  // accs[k][g]: aggregate k of group g
	distinct []*keyTable // per DISTINCT aggregate: the (group id, value) pairs seen
	parts    []*spillPartition
	router   *keyTable // picks a spilled row's partition
	spilling bool
	reserved int64
	strBytes int64 // interned key bytes already charged to the grant

	// Per-batch scratch.
	gids         []int32 // group id per row; -1 = spilled
	spillTo      []int32 // spill partition per row
	distinctVecs []*vector.Vector
	argVecs      []*vector.Vector
}

func newAggTable(inSchema *sqltypes.Schema, groupBy []int, aggs []exec.AggSpec, tracker *Tracker, spillStore *storage.Store) *aggTable {
	t := &aggTable{
		aggs:         aggs,
		groupBy:      groupBy,
		inSchema:     inSchema,
		tracker:      tracker,
		spillStore:   spillStore,
		accs:         make([][]aggAcc, len(aggs)),
		distinct:     make([]*keyTable, len(aggs)),
		distinctVecs: []*vector.Vector{{Typ: sqltypes.Int64}, nil},
		argVecs:      make([]*vector.Vector, len(aggs)),
	}
	if len(groupBy) > 0 {
		t.keys = newKeyTable(len(groupBy))
	} else {
		t.addGroup()
	}
	for i, spec := range aggs {
		if spec.Arg != nil {
			t.argVecs[i] = vector.NewVector(spec.Arg.Type(), vector.DefaultBatchSize)
		}
		if spec.Distinct {
			t.distinct[i] = newKeyTable(len(distinctCols))
		}
	}
	return t
}

func (t *aggTable) addGroup() {
	t.ngroups++
	for k := range t.accs {
		t.accs[k] = append(t.accs[k], aggAcc{})
	}
}

// admit reserves the grant for one new group, together with the key strings
// interned since the last charge. When the grant is exhausted and a spill
// store is set, the table starts spilling instead and admit reports false;
// without a spill store the group is admitted unreserved.
func (t *aggTable) admit() bool {
	cost := int64(64+8*t.keys.width+64*len(t.aggs)) + t.keys.strBytes - t.strBytes
	switch {
	case t.tracker.TryReserve(cost):
		t.reserved += cost
		t.strBytes = t.keys.strBytes
	case t.spillStore != nil:
		t.tracker.NoteSpill()
		t.spilling = true
		t.router = newRouter(len(t.groupBy))
		t.parts = make([]*spillPartition, aggSpillPartitions)
		for j := range t.parts {
			t.parts[j] = newSpillPartition(t.spillStore, t.inSchema)
		}
		return false
	}
	return true
}

// addBatch folds one compacted batch into the table. Aggregation is
// vectorized: the group ids of all rows are resolved through the key table
// first, each aggregate argument is evaluated once per batch into a vector,
// and accumulation runs in tight loops over the vector payloads. Once the
// grant is exhausted, rows of groups not yet in memory spill instead.
func (t *aggTable) addBatch(b *vector.Batch) error {
	b.Compact()
	n := b.NumRows()
	if n == 0 {
		return nil
	}
	t.gids = slices.Grow(t.gids[:0], n)[:n]
	gids := t.gids
	if t.keys == nil {
		clear(gids)
	} else {
		t.keys.load(b.Vecs, t.groupBy, 0, n, !t.spilling)
		spilled := false
		for i := range gids {
			g := t.keys.find(i)
			if g < 0 && !t.spilling && t.admit() {
				g, _ = t.keys.insert(i)
				t.addGroup()
			}
			gids[i] = g
			spilled = spilled || g < 0
		}
		if spilled {
			if err := t.spill(b, gids); err != nil {
				return err
			}
		}
	}
	for k := range t.aggs {
		t.accumulate(k, b, gids)
	}
	return nil
}

// spill writes the rows of b whose group id is -1 to the partition their
// key's routing hash picks; dict-coded cells spill as raw codes.
func (t *aggTable) spill(b *vector.Batch, gids []int32) error {
	t.spillTo = t.router.route(b.Vecs, t.groupBy, len(gids), aggSpillPartitions, t.spillTo)
	for i, g := range gids {
		if g < 0 {
			if err := t.parts[t.spillTo[i]].addBatchRow(b, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// addSpilled folds the rows of a spill partition into the table, one batch
// at a time.
func (t *aggTable) addSpilled(p *spillPartition) error {
	rows, err := p.readAll()
	if err != nil {
		return err
	}
	for len(rows) > 0 {
		n := min(len(rows), vector.DefaultBatchSize)
		if err := t.addBatch(rowsToBatch(t.inSchema, rows[:n])); err != nil {
			return err
		}
		rows = rows[n:]
	}
	return nil
}

// results finalizes the in-memory groups and then the spilled partitions.
// Each spilled partition holds a disjoint subset of the overflow groups (the
// in-memory groups were created before spilling began and absorb their rows
// directly), so partitions are aggregated independently in memory.
func (t *aggTable) results(ctx context.Context) ([]sqltypes.Row, error) {
	results := t.finalize(nil)
	for _, part := range t.parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pt := newAggTable(t.inSchema, t.groupBy, t.aggs, nil, nil)
		if err := pt.addSpilled(part); err != nil {
			return nil, err
		}
		results = pt.finalize(results)
	}
	return results, nil
}

// finalize appends one output row per group: the group key, then each
// aggregate's result.
func (t *aggTable) finalize(out []sqltypes.Row) []sqltypes.Row {
	w := len(t.groupBy) + len(t.aggs)
	vals := make([]sqltypes.Value, t.ngroups*w)
	for g := 0; g < t.ngroups; g++ {
		row := vals[g*w : (g+1)*w : (g+1)*w]
		for c, col := range t.groupBy {
			row[c] = t.keys.value(int32(g), c, t.inSchema.Cols[col].Typ)
		}
		for k := range t.aggs {
			row[len(t.groupBy)+k] = t.accs[k][g].result(&t.aggs[k])
		}
		out = append(out, row)
	}
	return out
}

// release returns the table's memory grant and drops any unread spill blobs.
func (t *aggTable) release() {
	t.tracker.Release(t.reserved)
	t.reserved = 0
	for _, p := range t.parts {
		p.drop()
	}
	t.parts = nil
}

// Open implements Operator: consumes the whole input and aggregates.
func (h *HashAgg) Open(ctx context.Context) error {
	if err := h.In.Open(ctx); err != nil {
		return err
	}
	defer h.In.Close()

	t := newAggTable(h.In.Schema(), h.GroupBy, h.Aggs, h.Tracker, h.SpillStore)
	h.table = t
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := h.In.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := t.addBatch(b); err != nil {
			return err
		}
	}

	results, err := t.results(ctx)
	if err != nil {
		return err
	}
	h.out = &Values{Rows: results, Sch: h.schema}
	return h.out.Open(ctx)
}

// accumulate folds aggregate k over a batch, vectorized where the state kind
// allows; NULL arguments and spilled rows (group id -1) are skipped. A
// DISTINCT aggregate folds a value only the first time its (group, value)
// pair enters the aggregate's seen-set.
func (t *aggTable) accumulate(k int, b *vector.Batch, gids []int32) {
	spec := &t.aggs[k]
	accs := t.accs[k]
	if spec.Kind == exec.CountStar {
		for _, g := range gids {
			if g >= 0 {
				accs[g].count++
			}
		}
		return
	}
	argVec := t.argVecs[k]
	spec.Arg.EvalVec(b, argVec)
	n := len(gids)

	if seen := t.distinct[k]; seen != nil {
		gv := t.distinctVecs[0]
		gv.I64 = slices.Grow(gv.I64[:0], n)[:n]
		for i, g := range gids {
			gv.I64[i] = int64(g)
		}
		t.distinctVecs[1] = argVec
		seen.load(t.distinctVecs, distinctCols, 0, n, true)
		for i, g := range gids {
			if g < 0 || argVec.IsNull(i) {
				continue
			}
			if _, isNew := seen.insert(i); isNew {
				accs[g].count++
				accs[g].add(spec.Kind, argVec.Value(i))
			}
		}
		return
	}

	switch {
	case (spec.Kind == exec.Sum || spec.Kind == exec.Avg) && argVec.Typ != sqltypes.Float64 && argVec.Typ != sqltypes.String:
		vals := argVec.I64[:n]
		if argVec.HasNulls() {
			for i, g := range gids {
				if g < 0 || argVec.Nulls.Get(i) {
					continue
				}
				st := &accs[g]
				st.count++
				st.sumI += vals[i]
				st.sumF += float64(vals[i])
			}
		} else {
			for i, g := range gids {
				if g < 0 {
					continue
				}
				st := &accs[g]
				st.count++
				st.sumI += vals[i]
				st.sumF += float64(vals[i])
			}
		}
	case (spec.Kind == exec.Sum || spec.Kind == exec.Avg) && argVec.Typ == sqltypes.Float64:
		vals := argVec.F64[:n]
		for i, g := range gids {
			if g < 0 || argVec.IsNull(i) {
				continue
			}
			st := &accs[g]
			st.count++
			st.sumF += vals[i]
		}
	default: // Min, Max, Count over any type
		for i, g := range gids {
			if g < 0 || argVec.IsNull(i) {
				continue
			}
			st := &accs[g]
			st.count++
			st.add(spec.Kind, argVec.Value(i))
		}
	}
}

// Next implements Operator.
func (h *HashAgg) Next() (*vector.Batch, error) { return h.out.Next() }

// Close implements Operator.
func (h *HashAgg) Close() error {
	if h.table != nil {
		h.table.release()
		h.table = nil
	}
	h.out = nil
	return nil
}
