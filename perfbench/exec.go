package main

import (
	"math"
	"time"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/sql"
	"rdbdyn/internal/storage"
)

// tally accumulates what one client's operations did. Clients keep
// their own and the phase merges them, so no counter is shared.
type tally struct {
	ops int

	// Latencies in µs: a select from Stmt.Query through Close, its first
	// row, and each write's Exec call.
	selects, firstRows, inserts, modifies []float64
	// Completion times in seconds since the phase began: of every
	// operation, and of each select in selects.
	doneAt, selectAt []float64
	// classUS is the time spent in engine calls per operation class, in
	// µs, and classOps the operations of each class.
	classUS  [4]float64
	classOps [4]int

	// pageAccesses is the simulated page traffic the operations caused
	// (misses, write-backs and hits), attributed per retrieval and
	// differenced on the pool for writes, plus estimation I/O.
	pageAccesses int64

	// Retrieval statistics, summed over single-table and join queries.
	queries                        int
	rows, fg                       int64
	abandons, switches, races      int
	overflows                      int
	finalLists, finalListSum       int64
	tactics                        map[string]int
	joins, joinOrdered, sortsSaved int
	reopts                         int
	intermediate                   int64
	stageOps                       map[string]int
	joinErrSum                     float64
	joinStages                     int
}

func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.selects = append(t.selects, o.selects...)
	t.firstRows = append(t.firstRows, o.firstRows...)
	t.inserts = append(t.inserts, o.inserts...)
	t.modifies = append(t.modifies, o.modifies...)
	t.doneAt = append(t.doneAt, o.doneAt...)
	t.selectAt = append(t.selectAt, o.selectAt...)
	for c := range t.classUS {
		t.classUS[c] += o.classUS[c]
		t.classOps[c] += o.classOps[c]
	}
	t.pageAccesses += o.pageAccesses
	t.queries += o.queries
	t.rows += o.rows
	t.fg += o.fg
	t.abandons += o.abandons
	t.switches += o.switches
	t.races += o.races
	t.overflows += o.overflows
	t.finalLists += o.finalLists
	t.finalListSum += o.finalListSum
	t.joins += o.joins
	t.joinOrdered += o.joinOrdered
	t.sortsSaved += o.sortsSaved
	t.reopts += o.reopts
	t.intermediate += o.intermediate
	t.joinErrSum += o.joinErrSum
	t.joinStages += o.joinStages
	for k, v := range o.tactics {
		inc(&t.tactics, k, v)
	}
	for k, v := range o.stageOps {
		inc(&t.stageOps, k, v)
	}
}

func inc(m *map[string]int, k string, n int) {
	if *m == nil {
		*m = make(map[string]int)
	}
	(*m)[k] += n
}

// observe folds one retrieval's statistics into the tally.
func (t *tally) observe(st core.RetrievalStats, ordered bool) {
	t.queries++
	t.pageAccesses += st.IO.Reads + st.IO.Writes + st.IO.Hits + st.EstimateIO
	t.rows += int64(st.RowsDelivered)
	t.fg += int64(st.FgRows)
	if st.FinalListLen >= 0 {
		t.finalLists++
		t.finalListSum += int64(st.FinalListLen)
	}
	inc(&t.tactics, st.Tactic, 1)
	for _, ev := range st.Events {
		switch ev.Kind {
		case core.EvScanAbandoned:
			t.abandons++
		case core.EvStrategySwitch:
			t.switches++
		case core.EvRaceResolved:
			t.races++
		case core.EvBorrowOverflow:
			t.overflows++
		case core.EvJoinReoptimized:
			t.reopts++
		}
	}
	if len(st.JoinStages) == 0 {
		return
	}
	t.joins++
	if ordered {
		t.joinOrdered++
		if st.SortAvoided {
			t.sortsSaved++
		}
	}
	for i, sg := range st.JoinStages {
		if i > 0 {
			inc(&t.stageOps, sg.Operator, 1)
		}
		if i < len(st.JoinStages)-1 {
			t.intermediate += int64(sg.ActualRows)
		}
		t.joinErrSum += math.Abs(math.Log2(math.Max(sg.EstRows, 1) / math.Max(float64(sg.ActualRows), 1)))
		t.joinStages++
	}
}

// worker runs one client's operations against the database.
type worker struct {
	c     *client
	db    *engine.DB
	stmts map[*query]*engine.Stmt
	index map[string]*catalog.Index
	tr    *tracer   // nil when untraced
	start time.Time // when the phase began
	next  func() int64
	rows  []expr.Row // drain buffer, reused
	// replies is where the worker keeps its operations' replies.
	replies *replies
	tally   tally
	// seekPages is each B-tree probe's page accesses.
	seekPages []float64
	// probeErrs counts failed out-of-band probes; any makes the run
	// incorrect.
	probeErrs int
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// reserve sizes the worker's records for n operations, so that keeping
// them allocates nothing in the timed phase and the Go heap counters
// there see only what the engine calls (and each operation's
// engine.Binds) allocate.
func (w *worker) reserve(n int) {
	t := &w.tally
	t.selects = make([]float64, 0, n)
	t.firstRows = make([]float64, 0, n)
	t.selectAt = make([]float64, 0, n)
	t.doneAt = make([]float64, 0, n)
	t.inserts = make([]float64, 0, n)
	t.modifies = make([]float64, 0, n)
	w.replies.recs = make([]record, 0, n)
}

// run executes one operation and keeps what the oracle needs to check
// it. Only the calls into the engine are timed; hashing the reply and,
// when traced, the out-of-band layer probes happen outside that
// interval.
func (w *worker) run(q *query, b engine.Binds) {
	op := w.next()
	root := w.tr.open()
	t0 := time.Now()
	rec := record{query: int32(q.id), ordered: true}
	var err error
	if q.class == classSelect {
		err = w.query(q, b, op, root, &rec)
	} else {
		err = w.exec(q, b, op, root, &rec)
	}
	if err != nil {
		rec.failed = true
		w.replies.fail(len(w.replies.recs), err)
	}
	w.replies.recs = append(w.replies.recs, rec)
	w.tally.ops++
	w.tally.doneAt = append(w.tally.doneAt, time.Since(w.start).Seconds())
	if w.tr != nil {
		w.probe(q, b, op, root)
		w.tr.close(root, op, "op:"+q.name, "bench", t0, time.Now())
	}
}

func (w *worker) query(q *query, b engine.Binds, op int64, root int, rec *record) error {
	t0 := time.Now()
	res, err := w.stmts[q].Query(b)
	t1 := time.Now()
	if err != nil {
		return err
	}
	rows := w.rows[:0]
	row, ok, err := res.Next()
	t2 := time.Now()
	for ok && err == nil {
		rows = append(rows, row)
		row, ok, err = res.Next()
	}
	t3 := time.Now()
	cerr := res.Close()
	t4 := time.Now()
	if err == nil {
		err = cerr
	}
	w.rows = rows
	lat := us(t4.Sub(t0))
	w.tally.selects = append(w.tally.selects, lat)
	w.tally.classUS[classSelect] += lat
	w.tally.classOps[classSelect]++
	w.tally.selectAt = append(w.tally.selectAt, t4.Sub(w.start).Seconds())
	w.tally.firstRows = append(w.tally.firstRows, us(t2.Sub(t0)))
	w.tr.add(op, root, "engine.open", "engine", t0, t1)
	w.tr.add(op, root, "engine.first_row", "engine", t1, t2)
	w.tr.add(op, root, "engine.drain", "engine", t2, t3)
	w.tr.add(op, root, "engine.close", "engine", t3, t4)
	w.tally.observe(res.Stats(), q.orderCol >= 0)
	rec.n = int32(len(rows))
	for i, r := range rows {
		rec.sum += hashRow(r)
		if q.orderCol >= 0 && i > 0 && expr.Compare(rows[i-1][q.orderCol], r[q.orderCol]) > 0 {
			rec.ordered = false
		}
	}
	clear(rows) // drop row references until the next reply
	return err
}

// execSpan names each write class's exec span.
var execSpan = [...]string{classInsert: "engine.exec.insert", classUpdate: "engine.exec.update", classDelete: "engine.exec.delete"}

func (w *worker) exec(q *query, b engine.Binds, op int64, root int, rec *record) error {
	before := w.db.Pool().Stats()
	t0 := time.Now()
	n, err := w.db.Exec(q.sql, b)
	t1 := time.Now()
	io := w.db.Pool().Stats().Sub(before)
	w.tally.pageAccesses += io.Reads + io.Writes + io.Hits
	lat := us(t1.Sub(t0))
	w.tally.classUS[q.class] += lat
	w.tally.classOps[q.class]++
	if q.class == classInsert {
		w.tally.inserts = append(w.tally.inserts, lat)
	} else {
		w.tally.modifies = append(w.tally.modifies, lat)
	}
	w.tr.add(op, root, execSpan[q.class], "engine", t0, t1)
	rec.n = int32(n)
	return err
}

// probe times direct calls into the layers below the engine for the
// operation just run: parsing and compiling its statement, appraising
// its restriction, and one B-tree descent. Each is a span of its own
// under the operation's root; a failure is counted and recorded as a
// span named "error".
func (w *worker) probe(q *query, b engine.Binds, op int64, root int) {
	fail := func(t0 time.Time) {
		w.probeErrs++
		w.tr.add(op, root, "error", "bench", t0, time.Now())
	}
	bb, err := b.Bindings()
	if err != nil {
		fail(time.Now())
		return
	}
	cat := w.db.Catalog()
	t0 := time.Now()
	if q.class == classSelect {
		stmt, err := sql.Parse(q.sql)
		t1 := time.Now()
		if err != nil {
			fail(t0)
			return
		}
		w.tr.add(op, root, "sql.parse", "sql", t0, t1)
		if _, err := sql.Compile(cat, stmt); err != nil {
			fail(t1)
			return
		}
		w.tr.add(op, root, "sql.compile", "sql", t1, time.Now())
	} else {
		stmt, err := sql.ParseStatement(q.sql)
		t1 := time.Now()
		if err != nil {
			fail(t0)
			return
		}
		w.tr.add(op, root, "sql.parse", "sql", t0, t1)
		var where sql.Node
		switch s := stmt.(type) {
		case *sql.UpdateStmt:
			where = s.Where
		case *sql.DeleteStmt:
			where = s.Where
		}
		if where != nil {
			if _, err := sql.CompileExpr(cat, q.table, where); err != nil {
				fail(t1)
				return
			}
			w.tr.add(op, root, "sql.compile", "sql", t1, time.Now())
		}
	}

	if stmt := w.stmts[q]; stmt != nil {
		t0 := time.Now()
		if err := appraise(stmt, bb); err != nil {
			fail(t0)
		} else {
			w.tr.add(op, root, "estimate.appraise", "estimate", t0, time.Now())
		}
	}

	if ix := w.index[q.seekIndex]; ix != nil {
		key := expr.EncodeKey(nil, expr.Int(bind(b, q.seekBind)))
		trk := storage.NewTracker(nil)
		t0 := time.Now()
		cur, err := ix.Tree.SeekTracked(key, nil, trk)
		if err == nil {
			_, _, _, err = cur.Next()
			cur.Close()
		}
		t1 := time.Now()
		if err != nil {
			fail(t0)
			return
		}
		w.tr.add(op, root, "btree.seek", "btree", t0, t1)
		st := trk.Stats()
		w.seekPages = append(w.seekPages, float64(st.Reads+st.Hits))
	}
}

// appraise runs the estimation stage directly on a prepared statement's
// restriction: once for a single-table query, once per restricted table
// of a join.
func appraise(stmt *engine.Stmt, bb expr.Bindings) error {
	opts := estimate.DefaultOptions()
	if q := stmt.CoreQuery(); q != nil {
		_, err := estimate.Appraise(q.Table.Indexes, q.Restriction, bb, opts)
		return err
	}
	jq := stmt.JoinQuery()
	for i, tab := range jq.Tables {
		if jq.Local[i] == nil {
			continue
		}
		if _, err := estimate.Appraise(tab.Indexes, jq.Local[i], bb, opts); err != nil {
			return err
		}
	}
	return nil
}
