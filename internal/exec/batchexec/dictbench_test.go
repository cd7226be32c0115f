package batchexec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"apollo/internal/exec"
	"apollo/internal/expr"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
)

// Benchmarks contrasting late materialization (dict codes end to end) with
// eager decode at the scan (a Materialize wrapper directly above it). The
// "materialized" variants are the pre-late-materialization behavior, kept
// runnable so the speedup stays measurable in one binary.

const dictBenchRows = 60000

var dictBenchCats = func() []string {
	cats := make([]string, 64)
	for i := range cats {
		cats[i] = fmt.Sprintf("category-%02d-with-a-reasonably-long-suffix", i)
	}
	return cats
}()

var (
	dictBenchOnce  sync.Once
	dictBenchTable *table.Table
)

func dictBenchSetup(b *testing.B) *table.Table {
	b.Helper()
	dictBenchOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		rows := make([]sqltypes.Row, dictBenchRows)
		for i := range rows {
			rows[i] = sqltypes.Row{
				sqltypes.NewInt(int64(i)),
				sqltypes.NewString(dictBenchCats[rng.Intn(len(dictBenchCats))]),
				sqltypes.NewInt(int64(rng.Intn(1000))),
				sqltypes.NewNull(sqltypes.Int64),
				sqltypes.NewNull(sqltypes.Float64),
			}
		}
		store := storage.NewStore(storage.DefaultBufferPoolBytes)
		opts := table.Options{RowGroupSize: 10000, BulkLoadThreshold: 100, Columnstore: table.DefaultOptions().Columnstore}
		tb := table.New(store, "bench", strSchema(), opts)
		if err := tb.BulkLoad(rows); err != nil {
			panic(err)
		}
		dictBenchTable = tb
	})
	return dictBenchTable
}

// benchInput returns the aggregation/join input over cols: the raw scan
// (coded string vectors flow downstream) or the scan behind an eager
// Materialize boundary.
func benchInput(tb *table.Table, cols []int, eager bool) (Operator, *ScanStats) {
	s := NewScan(tb.Snapshot(), cols)
	s.Stats = &ScanStats{}
	if eager {
		return &Materialize{In: s}, s.Stats
	}
	return s, s.Stats
}

func BenchmarkGroupByString(b *testing.B) {
	tb := dictBenchSetup(b)
	aggs := []exec.AggSpec{
		{Kind: exec.CountStar, Name: "n"},
		{Kind: exec.Sum, Arg: expr.NewColRef(1, "val", sqltypes.Int64), Name: "s"},
	}
	for _, v := range []struct {
		name  string
		eager bool
	}{{"coded", false}, {"materialized", true}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in, stats := benchInput(tb, []int{1, 2}, v.eager)
				rows, err := Drain(NewHashAgg(in, []int{0}, []string{"cat"}, aggs))
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != len(dictBenchCats) {
					b.Fatalf("got %d groups, want %d", len(rows), len(dictBenchCats))
				}
				if !v.eager && stats.StringColsCoded == 0 {
					b.Fatal("coded variant saw no coded string vectors")
				}
			}
		})
	}
}

func BenchmarkJoinOnString(b *testing.B) {
	tb := dictBenchSetup(b)
	for _, v := range []struct {
		name  string
		eager bool
	}{{"coded", false}, {"materialized", true}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				probe, stats := benchInput(tb, []int{0, 1}, v.eager)
				// Semi-join shape keeps output linear in the probe; the build
				// side is a raw scan so its string key reaches the key table
				// coded in the coded variant and materialized in the eager
				// one.
				build, _ := benchInput(tb, []int{1}, v.eager)
				j, err := NewHashJoin(probe, build, []int{1}, []int{0}, exec.LeftSemi, nil)
				if err != nil {
					b.Fatal(err)
				}
				n, err := Count(j)
				if err != nil {
					b.Fatal(err)
				}
				if n != dictBenchRows {
					b.Fatalf("got %d rows, want %d", n, dictBenchRows)
				}
				if !v.eager && stats.StringColsCoded == 0 {
					b.Fatal("coded variant saw no coded string vectors")
				}
			}
		})
	}
}
