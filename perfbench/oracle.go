package main

import (
	"fmt"
	"hash/maphash"
	"math"

	"rdbdyn/internal/engine"
	"rdbdyn/internal/expr"
)

// hashSeed keys string hashing; the client and the oracle hash in the
// same process, so a per-process seed is enough.
var hashSeed = maphash.MakeSeed()

// hashRow hashes each value's type and payload into one word. Results
// are compared as multisets by summing row hashes, which ignores order.
func hashRow(r expr.Row) uint64 {
	h := uint64(len(r))
	for _, v := range r {
		var x uint64
		switch v.T {
		case expr.TypeFloat:
			x = math.Float64bits(v.F)
		case expr.TypeString:
			x = maphash.String(hashSeed, v.S)
		default:
			x = uint64(v.I)
		}
		h = mix64(h ^ uint64(v.T))
		h = mix64(h ^ x)
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// otable is the oracle's copy of one table. Every table's column 0 is
// an ID, dense from 0 in generation and insertion order, so rows are
// indexed by it. Deleted rows become nil.
type otable struct {
	rows []expr.Row
	// byVal, once between has built it, maps each value of integer
	// column valCol to the IDs of the live rows holding it; the writes
	// keep it current.
	valCol int
	byVal  map[int64][]int64
}

// between returns the live rows whose integer column col lies in
// [lo, hi], looking the values up one by one: it is meant for narrow
// ranges, which a scan of every row would make the slowest part of
// checking a run.
func (t *otable) between(col int, lo, hi int64) []expr.Row {
	if t.byVal == nil || t.valCol != col {
		t.valCol, t.byVal = col, make(map[int64][]int64, len(t.rows))
		for id, r := range t.rows {
			if r != nil {
				t.link(r, int64(id))
			}
		}
	}
	var out []expr.Row
	for v := lo; v <= hi; v++ {
		for _, id := range t.byVal[v] {
			out = append(out, t.rows[id])
		}
	}
	return out
}

// link and unlink keep byVal current for a row with the given ID.
func (t *otable) link(r expr.Row, id int64) {
	if t.byVal != nil {
		v := r[t.valCol].I
		t.byVal[v] = append(t.byVal[v], id)
	}
}

func (t *otable) unlink(r expr.Row, id int64) {
	if t.byVal == nil {
		return
	}
	v := r[t.valCol].I
	ids := t.byVal[v]
	for i, x := range ids {
		if x == id {
			ids[i] = ids[len(ids)-1]
			t.byVal[v] = ids[:len(ids)-1]
			return
		}
	}
}

func (t *otable) byID(id int64) expr.Row {
	if id < 0 || id >= int64(len(t.rows)) {
		return nil
	}
	return t.rows[id]
}

// each calls fn on every live row in ID order.
func (t *otable) each(fn func(expr.Row)) {
	for _, r := range t.rows {
		if r != nil {
			fn(r)
		}
	}
}

// oracle is the benchmark's own copy of the generated data, kept
// independent of the engine: it regenerates the rows from the seed,
// applies the workload's writes itself, and answers queries by naive
// scans.
type oracle struct {
	tables map[string]*otable
}

func newOracle(w *workloadDef, seed int64) *oracle {
	o := &oracle{tables: make(map[string]*otable)}
	for ti, spec := range w.tables {
		gen := generate(spec, seedFor(seed, ti))
		rows := make([]expr.Row, len(gen))
		for _, r := range gen {
			rows[r[0].I] = r
		}
		o.tables[spec.name] = &otable{rows: rows}
	}
	return o
}

// insert adds a row; its ID must be the next one.
func (o *oracle) insert(table string, row expr.Row) int {
	t := o.tables[table]
	if row[0].I != int64(len(t.rows)) {
		return 0
	}
	t.rows = append(t.rows, row)
	t.link(row, row[0].I)
	return 1
}

// update sets columns of the row with the given ID; it reports the
// number of rows changed.
func (o *oracle) update(table string, id int64, set map[int]expr.Value) int {
	t := o.tables[table]
	r := t.byID(id)
	if r == nil {
		return 0
	}
	t.unlink(r, id)
	r = r.Clone()
	for c, v := range set {
		r[c] = v
	}
	t.rows[id] = r
	t.link(r, id)
	return 1
}

func (o *oracle) remove(table string, id int64) int {
	t := o.tables[table]
	r := t.byID(id)
	if r == nil {
		return 0
	}
	t.unlink(r, id)
	t.rows[id] = nil
	return 1
}

// record is what a phase keeps of one operation's reply: enough to
// check it after the timed interval. It holds no pointers, so the
// garbage collector never scans a phase's records; the bindings are
// drawn again at check time by replaying the client's stream.
type record struct {
	query int32  // index in the workload's queries
	n     int32  // rows returned, or rows affected by a write
	sum   uint64 // sum of row hashes
	// ordered is false when the rows broke the query's ORDER BY.
	ordered bool
	failed  bool // the call returned an error, kept in errs
}

// replies is what one client's operations in a phase returned, in the
// order they ran.
type replies struct {
	recs []record
	errs map[int]error // by record index
}

func (r *replies) fail(i int, err error) {
	if r.errs == nil {
		r.errs = make(map[int]error)
	}
	r.errs[i] = err
}

// outcome is one operation's reply as the oracle checks it.
type outcome struct {
	q       *query
	binds   engine.Binds
	err     error
	n       int
	sum     uint64
	ordered bool
}

// outcome expands record i for checking; the caller fills in binds.
func (r *replies) outcome(i int, queries []*query) outcome {
	rec := r.recs[i]
	return outcome{q: queries[rec.query], err: r.errs[i], n: int(rec.n), sum: rec.sum, ordered: rec.ordered}
}

// check verifies one outcome against the oracle, applying writes to the
// oracle's copy as it goes. Outcomes must be checked in the order their
// operations ran whenever writes are involved.
func (o *oracle) check(out *outcome) error {
	q := out.q
	if q.apply != nil {
		if out.err != nil {
			return fmt.Errorf("%s: %w", q.name, out.err)
		}
		if want := q.apply(o, out.binds); out.n != want {
			return fmt.Errorf("%s %v: %d rows affected, oracle %d", q.name, out.binds, out.n, want)
		}
		return nil
	}
	if out.err != nil {
		return fmt.Errorf("%s: %w", q.name, out.err)
	}
	want := q.want(o, out.binds)
	if !out.ordered {
		return fmt.Errorf("%s %v: rows out of ORDER BY order", q.name, out.binds)
	}
	var sum uint64
	for _, r := range want {
		sum += hashRow(r)
	}
	if out.n != len(want) || out.sum != sum {
		return fmt.Errorf("%s %v: %d rows (sum %x), oracle %d rows (sum %x)", q.name, out.binds, out.n, out.sum, len(want), sum)
	}
	return nil
}

// project builds a result row from the given columns of a row.
func project(r expr.Row, cols ...int) expr.Row {
	out := make(expr.Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}
