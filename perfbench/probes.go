package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"apollo/internal/colstore"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/wal"
	"apollo/internal/workload"
)

// probeReps repeats each standalone probe pass; the metric is the median.
const probeReps = 5

// layerProbes times layers in isolation on the workload's data shape, after
// the window of a traced run: segment build and decode per encoding
// (colstore), blob reads on a hit and on a miss (storage), and an fsynced
// append (wal, the device floor under commit latency).
func layerProbes(e *env, o *outcome) error {
	d := workload.GenSSB(e.scale.probeSF, e.seed)
	store := storage.NewStore(1 << 30)
	op := e.trace.newOp()

	// Build: lineorder in one row group, and the dimensions whose string
	// columns give the dictionary-encoded segments (lineorder has none).
	type built struct {
		idx *colstore.Index
		g   *colstore.RowGroup
	}
	var groups []built
	for _, t := range ssbTables(d) {
		idx := colstore.NewIndex(store, t.schema, colstore.DefaultOptions())
		bufs := colstore.BuffersFromRows(t.schema, t.rows)
		id := e.trace.start("colstore.Index.CompressRowGroup", 0, op)
		start := time.Now()
		g, err := idx.CompressRowGroup(bufs)
		el := time.Since(start)
		e.trace.end(id)
		if err != nil {
			return fmt.Errorf("probe build %s: %w", t.name, err)
		}
		if t.name == "lineorder" {
			o.metrics["colstore.build_ns_per_row"] = float64(el.Nanoseconds()) / float64(len(t.rows))
		}
		groups = append(groups, built{idx, g})
	}

	// Storage: every segment blob read on a miss (pool emptied) and on a hit.
	var blobs []storage.BlobID
	var mib float64
	for _, b := range groups {
		for _, s := range b.g.Segs {
			blobs = append(blobs, s.Blob)
			mib += float64(s.DiskBytes) / (1 << 20)
		}
	}
	var hitNs, missNs []float64
	for rep := 0; rep < probeReps; rep++ {
		store.EvictAll()
		for _, hit := range []bool{false, true} {
			name := "storage.Store.Get.miss"
			if hit {
				name = "storage.Store.Get.hit"
			}
			id := e.trace.start(name, 0, op)
			start := time.Now()
			for _, b := range blobs {
				if _, err := store.Get(b); err != nil {
					return fmt.Errorf("probe get: %w", err)
				}
			}
			ns := float64(time.Since(start).Nanoseconds()) / mib
			e.trace.end(id)
			if hit {
				hitNs = append(hitNs, ns)
			} else {
				missNs = append(missNs, ns)
			}
		}
	}
	o.metrics["storage.get_hit_ns"] = median(hitNs)
	o.metrics["storage.get_miss_ns"] = median(missNs)

	// Decode: OpenColumn over every segment (all cached now), per encoding.
	kinds := []string{"bitpack", "rle", "dict"}
	perKind := map[string][]float64{}
	var allocPerRow []float64
	for rep := 0; rep < probeReps; rep++ {
		ns := map[string]float64{}
		rows := map[string]float64{}
		var decoded float64
		allocs := allocBytes()
		for _, b := range groups {
			for c := range b.g.Segs {
				meta := &b.g.Segs[c]
				kind := "bitpack"
				switch {
				case meta.Enc == colstore.EncDict:
					kind = "dict"
				case meta.Comp == colstore.CompRLE:
					kind = "rle"
				}
				id := e.trace.start("colstore.OpenColumn."+kind, 0, op)
				start := time.Now()
				_, err := colstore.OpenColumn(store, meta, b.idx.Schema.Cols[c], b.idx.Primary(c))
				ns[kind] += float64(time.Since(start).Nanoseconds())
				e.trace.end(id)
				if err != nil {
					return fmt.Errorf("probe decode: %w", err)
				}
				rows[kind] += float64(meta.Rows)
				decoded += float64(meta.Rows)
			}
		}
		allocPerRow = append(allocPerRow, (allocBytes()-allocs)/decoded)
		for _, k := range kinds {
			if rows[k] > 0 {
				perKind[k] = append(perKind[k], ns[k]/rows[k])
			}
		}
	}
	for _, k := range kinds {
		o.metrics["colstore.decode_ns_per_row."+k] = median(perKind[k])
	}
	o.metrics["colstore.decode_bytes_per_row"] = median(allocPerRow)
	o.facts["probe"] = map[string]any{"sf": e.scale.probeSF, "blobs": len(blobs), "mib": mib,
		"lineorder_rows": len(d.Lineorder), "reps": probeReps}

	return walProbe(e, o)
}

// walProbe times fsynced appends on a standalone WAL in the run's scratch
// directory: the filesystem's floor under a durable commit.
func walProbe(e *env, o *outcome) error {
	w, err := wal.Create(filepath.Join(e.workDir, "walprobe"), 1, wal.Options{Policy: wal.FsyncAlways})
	if err != nil {
		return err
	}
	payload := sqltypes.EncodeRow(nil, workload.LineorderSchema, workload.GenSSB(0.001, e.seed).Lineorder[0])
	op := e.trace.newOp()
	var us []float64
	for i := 0; i < e.scale.walProbes; i++ {
		id := e.trace.start("wal.Writer.Append", 0, op)
		start := time.Now()
		err := w.Append(&wal.Record{Type: wal.TDeltaInsert, Table: "probe", A: 1, B: uint64(i), Payload: payload})
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		e.trace.end(id)
		if err != nil {
			w.Close()
			return err
		}
	}
	o.metrics["wal.fsync_us"] = median(us)
	return w.Close()
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}
