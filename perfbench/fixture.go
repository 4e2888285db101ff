package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
	"rdbdyn/internal/workload"
)

// tableSpec describes one generated table of a workload's database.
type tableSpec struct {
	name string
	rows int
	// cols returns fresh generators: Seq and Zipf keep state, so every
	// build (and the oracle's regeneration) needs its own.
	cols func() []workload.ColumnSpec
	// indexes lists the indexed columns, one single-column index each.
	indexes []string
	// shuffle randomizes load order, destroying the clustering of Seq
	// columns.
	shuffle bool
}

func indexName(table, col string) string { return table + "_" + col + "_IX" }

// seedFor derives a table's generator seed from the run seed, so the
// tables of one database draw independent streams.
func seedFor(seed int64, table int) int64 { return seed*1_000_003 + int64(table)*7919 + 1 }

// generate draws a table's rows with the workload package's generators:
// column by column, each generator seeing the row's earlier columns.
func generate(spec tableSpec, seed int64) []expr.Row {
	rng := rand.New(rand.NewSource(seed))
	cols := spec.cols()
	rows := make([]expr.Row, spec.rows)
	for i := range rows {
		row := make(expr.Row, len(cols))
		for j, c := range cols {
			row[j] = c.Gen.Next(rng, row)
		}
		rows[i] = row
	}
	if spec.shuffle {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	return rows
}

// setupStats is what one build of a workload's database cost.
type setupStats struct {
	total    time.Duration
	generate time.Duration
	load     time.Duration
	index    time.Duration // all index builds
	rows     int
	// heapBytes is the live Go heap after the build and a forced GC.
	heapBytes uint64
	// io is the buffer pool's traffic during the build.
	io storage.IOStats
}

// setup builds a workload's database from empty: per table, generate
// the rows, load them through the catalog, then build each index. The
// generated rows are dropped before the heap is measured, so heapBytes
// is the database plus the process baseline.
func setup(w *workloadDef, seed int64, tr *tracer, op int64) (*engine.DB, setupStats, error) {
	var st setupStats
	t0 := time.Now()
	root := tr.open()
	db := engine.Open(w.options)
	for ti, spec := range w.tables {
		g0 := time.Now()
		rows := generate(spec, seedFor(seed, ti))
		g1 := time.Now()
		tr.add(op, root, "workload.generate:"+spec.name, "workload", g0, g1)

		specCols := spec.cols()
		cols := make([]catalog.Column, len(specCols))
		for i, c := range specCols {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Gen.Type()}
		}
		tab, err := db.CreateTable(spec.name, cols...)
		if err != nil {
			return nil, st, err
		}
		for _, row := range rows {
			if _, err := tab.Insert(row); err != nil {
				return nil, st, fmt.Errorf("load %s: %w", spec.name, err)
			}
		}
		g2 := time.Now()
		tr.add(op, root, "catalog.load:"+spec.name, "catalog", g1, g2)
		st.generate += g1.Sub(g0)
		st.load += g2.Sub(g1)
		st.rows += len(rows)

		for _, col := range spec.indexes {
			i0 := time.Now()
			if _, err := db.CreateIndex(spec.name, indexName(spec.name, col), col); err != nil {
				return nil, st, err
			}
			i1 := time.Now()
			tr.add(op, root, "btree.create_index:"+indexName(spec.name, col), "btree", i0, i1)
			st.index += i1.Sub(i0)
		}
	}
	t1 := time.Now()
	tr.close(root, op, "setup", "bench", t0, t1)
	st.total = t1.Sub(t0)
	st.io = db.Pool().Stats()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.heapBytes = ms.HeapAlloc
	return db, st, nil
}

// pageCounts reports a database's heap pages and index nodes.
func pageCounts(db *engine.DB) (heap, index int) {
	cat := db.Catalog()
	for _, name := range cat.Tables() {
		tab, err := cat.Table(name)
		if err != nil {
			continue
		}
		heap += tab.Pages()
		for _, ix := range tab.Indexes {
			index += ix.Tree.NumNodes()
		}
	}
	return heap, index
}
