package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"

	"rdbdyn/internal/core"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/workload"
)

type opClass int

const (
	classSelect opClass = iota
	classInsert
	classUpdate
	classDelete
)

func (c opClass) String() string {
	return [...]string{"select", "insert", "update", "delete"}[c]
}

// query is one kind of operation a client draws: a statement, how its
// host variables are drawn, and how the oracle answers it.
type query struct {
	name   string
	class  opClass
	sql    string
	weight int
	draw   func(c *client) engine.Binds
	// Reads: the oracle's result rows, and the ORDER BY key's position
	// in the result (-1 when unordered).
	want     func(o *oracle, b engine.Binds) []expr.Row
	orderCol int
	// Writes: the table written, and the oracle's version of the write,
	// returning rows affected.
	table string
	apply func(o *oracle, b engine.Binds) int
	// seekIndex and seekBind name the index and host variable the
	// traced run's out-of-band B-tree probe seeks with.
	seekIndex, seekBind string
	// id is the query's index in its workload's queries.
	id int
}

// workloadDef is one benchmark workload: its database, engine options,
// client count and operation mix.
type workloadDef struct {
	name    string
	why     string
	clients int
	tables  []tableSpec
	options engine.Options
	// mix is the operation mix, drawn by weight; records name a query
	// by its index in it.
	mix []*query
}

// client is one closed-loop client's own seeded stream of operations.
type client struct {
	rng    *rand.Rand
	baseN  int64      // rows the written table was generated with
	nextID int64      // ID the next INSERT uses
	zipf   *rand.Zipf // hot-key ID draws over the generated IDs
	deck   []*query   // the rest of the shuffled operation deck
	even   map[string]float64
}

// pick draws the next operation from a shuffled deck holding each
// query weight times, so every deck's worth of operations has the
// exact mix; a random order alone would let the mix, and with it every
// per-operation mean, drift from run to run.
func (c *client) pick(w *workloadDef) *query {
	if len(c.deck) == 0 {
		for _, q := range w.mix {
			for i := 0; i < q.weight; i++ {
				c.deck = append(c.deck, q)
			}
		}
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
	}
	q := c.deck[len(c.deck)-1]
	c.deck = c.deck[:len(c.deck)-1]
	return q
}

// next draws the client's next operation from the deck and its
// bindings.
func (c *client) next(w *workloadDef) (*query, engine.Binds) {
	q := c.pick(w)
	return q, q.draw(c)
}

// redraw gives out the bindings its operation ran with, drawn again by
// a fresh copy of the client replaying the run's operations in order.
func (c *client) redraw(w *workloadDef, out *outcome) error {
	q, binds := c.next(w)
	if q != out.q {
		return fmt.Errorf("replay drew %s where the run had %s", q.name, out.q.name)
	}
	out.binds = binds
	return nil
}

// spread returns the next point in [0, 1) of a golden-ratio sequence
// of its own for stream, starting at a seeded random offset. Sizes
// drawn through it (selectivities, range widths) cover their range
// evenly within every run, which keeps heavy-tailed per-operation
// costs from making run means depend on a few lucky draws.
func (c *client) spread(stream string) float64 {
	u, ok := c.even[stream]
	if !ok {
		u = c.rng.Float64()
	}
	u += 0.6180339887498949
	u -= math.Floor(u)
	c.even[stream] = u
	return u
}

func newClient(w *workloadDef, seed int64, id int) *client {
	rng := rand.New(rand.NewSource(seed*7_368_787 + int64(id)*104_729 + 17))
	n := int64(w.tables[0].rows)
	for _, q := range w.mix {
		if q.class == classInsert {
			for _, t := range w.tables {
				if t.name == q.table {
					n = int64(t.rows)
				}
			}
		}
	}
	return &client{rng: rng, baseN: n, nextID: n, zipf: rand.NewZipf(rng, 1.1, 1, uint64(n-1)),
		even: make(map[string]float64)}
}

func (c *client) uniform(lo, hi int64) int64 { return lo + c.rng.Int63n(hi-lo) }

// age draws a uniform FAMILIES.AGE value.
func (c *client) age() int64 { return c.uniform(ageBase, ageBase+c.baseN) }

// logUniform maps the next point of stream's spread sequence to
// [lo, hi] with a uniform logarithm.
func (c *client) logUniform(stream string, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + c.spread(stream)*(math.Log(hi)-math.Log(lo)))
}

// anyID draws a uniform ID among those loaded or inserted so far;
// deleted ones stay eligible and then match nothing. Only one client
// of a workload writes, so its own counter covers every inserted ID.
func (c *client) anyID() int64 { return c.rng.Int63n(c.nextID) }

func bind(b engine.Binds, name string) int64 { return b[name].(int64) }

func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

const (
	padLen = 100
	// ageBase is FAMILIES.AGE's smallest value. From 8192 up to 2^20
	// every AGE encodes to the same three varint bytes, so an UPDATE of
	// AGE never grows a row: the engine updates rows in place and fails
	// with "page full" when a grown row no longer fits its page.
	ageBase = 1 << 13
)

var pad = strings.Repeat("x", padLen)

// scatter yields a permutation of [base, base+n) over successive rows:
// row i gets base + (offset + i·step) mod n, with a seeded offset and
// step the
// integer nearest n/φ that is coprime to n. Rows with neighbouring
// values sit far apart in load order, so an index on the column has no
// physical clustering at all. With uniformly random values a few
// neighbours share a heap page, and whether the optimizer's 16-sample
// cluster-ratio estimate happens to hit one flips its cost model, and
// the workload's speed, from seed to seed.
type scatter struct {
	base, n, step, offset, i int64
}

func newScatter(base, n int64) *scatter {
	step := int64(math.Round(float64(n) / math.Phi))
	for step > 1 && gcd(step, n) != 1 {
		step--
	}
	return &scatter{base: base, n: n, step: max(step, 1)}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Next implements workload.Generator.
func (s *scatter) Next(rng *rand.Rand, _ expr.Row) expr.Value {
	if s.i == 0 {
		s.offset = rng.Int63n(s.n)
	}
	v := s.base + (s.offset+s.i*s.step)%s.n
	s.i++
	return expr.Int(v)
}

// Type implements workload.Generator.
func (s *scatter) Type() expr.Type { return expr.TypeInt }

// families is the paper's FAMILIES-style table: a clustered unique ID,
// an AGE spread over rows values from ageBase, one row per value, a
// Zipf-skewed CITY, and padding.
func families(rows int) tableSpec {
	return tableSpec{name: "FAMILIES", rows: rows, indexes: []string{"ID", "AGE", "CITY"},
		cols: func() []workload.ColumnSpec {
			return []workload.ColumnSpec{
				{Name: "ID", Gen: &workload.Seq{}},
				{Name: "AGE", Gen: newScatter(ageBase, int64(rows))},
				{Name: "CITY", Gen: &workload.Zipf{S: 1.3, V: 1, N: 1000}},
				{Name: "PAD", Gen: workload.Pad{Len: padLen}},
			}
		}}
}

// writeQueries returns INSERT, UPDATE-by-ID and DELETE-by-ID statements
// on a table whose column 0 is its ID. row draws the inserted row's
// other columns; set names the updated column and draws its value.
func writeQueries(table string, cols []string, row func(c *client) []int64, padCol int, setCol int, set func(c *client) int64) (ins, upd, del *query) {
	params := make([]string, len(cols))
	for i, col := range cols {
		params[i] = ":" + col
	}
	ins = &query{name: "insert", class: classInsert, orderCol: -1, table: table,
		sql: fmt.Sprintf("INSERT INTO %s VALUES (%s)", table, strings.Join(params, ", ")),
		draw: func(c *client) engine.Binds {
			b := engine.Binds{cols[0]: c.nextID}
			c.nextID++
			vals := row(c)
			for i, col := range cols[1:] {
				if i+1 == padCol {
					b[col] = pad
				} else {
					b[col] = vals[i]
				}
			}
			return b
		},
		apply: func(o *oracle, b engine.Binds) int {
			r := make(expr.Row, len(cols))
			for i, col := range cols {
				if i == padCol {
					r[i] = expr.Str(pad)
				} else {
					r[i] = expr.Int(bind(b, col))
				}
			}
			return o.insert(table, r)
		},
	}
	upd = &query{name: "update", class: classUpdate, orderCol: -1, table: table,
		sql:  fmt.Sprintf("UPDATE %s SET %s = :V WHERE %s = :ID", table, cols[setCol], cols[0]),
		draw: func(c *client) engine.Binds { return engine.Binds{"ID": c.anyID(), "V": set(c)} },
		apply: func(o *oracle, b engine.Binds) int {
			return o.update(table, bind(b, "ID"), map[int]expr.Value{setCol: expr.Int(bind(b, "V"))})
		},
	}
	del = &query{name: "delete", class: classDelete, orderCol: -1, table: table,
		sql:   fmt.Sprintf("DELETE FROM %s WHERE %s = :ID", table, cols[0]),
		draw:  func(c *client) engine.Binds { return engine.Binds{"ID": c.anyID()} },
		apply: func(o *oracle, b engine.Binds) int { return o.remove(table, bind(b, "ID")) },
	}
	return ins, upd, del
}

func familiesWrites() (ins, upd, del *query) {
	return writeQueries("FAMILIES", []string{"ID", "AGE", "CITY", "PAD"}, func(c *client) []int64 {
		return []int64{c.age(), c.uniform(0, 1000), 0}
	}, 3, 1, func(c *client) int64 { return c.age() })
}

// oltp: short host-variable transactions on a table that fits the pool.
func oltpWorkload(scale float64) *workloadDef {
	w := &workloadDef{
		name:    "oltp",
		why:     "point and short-range reads beside inserts, updates and deletes on a 50k-row table that fits the pool, with plan cache and feedback on",
		clients: 1,
		tables:  []tableSpec{families(scaled(50000, scale))},
		options: engine.Options{EnableFeedback: true, PlanCache: engine.PlanCacheConfig{Enable: true}},
	}
	point := &query{name: "point", class: classSelect, weight: 1100, orderCol: -1,
		sql:  "SELECT * FROM FAMILIES WHERE ID = :ID",
		draw: func(c *client) engine.Binds { return engine.Binds{"ID": int64(c.zipf.Uint64())} },
		want: func(o *oracle, b engine.Binds) []expr.Row {
			if r := o.tables["FAMILIES"].byID(bind(b, "ID")); r != nil {
				return []expr.Row{r}
			}
			return nil
		},
		seekIndex: "FAMILIES_ID_IX", seekBind: "ID",
	}
	short := &query{name: "short_range", class: classSelect, weight: 550, orderCol: -1,
		sql: "SELECT ID, AGE, CITY FROM FAMILIES WHERE AGE >= :LO AND AGE <= :HI",
		draw: func(c *client) engine.Binds {
			lo := c.age()
			return engine.Binds{"LO": lo, "HI": lo + c.uniform(0, 16)}
		},
		want: func(o *oracle, b engine.Binds) []expr.Row {
			rows := o.tables["FAMILIES"].between(1, bind(b, "LO"), bind(b, "HI"))
			for i, r := range rows {
				rows[i] = project(r, 0, 1, 2)
			}
			return rows
		},
		seekIndex: "FAMILIES_AGE_IX", seekBind: "LO",
	}
	// UPDATE and DELETE by ID scan the whole heap, about 20 ms each
	// against tens of µs for the rest, so the weights follow engine time
	// rather than count: selects take about three fifths of it, UPDATE
	// and DELETE together about two fifths, and no class alone decides
	// throughput. The heap has no free-space map, so every INSERT adds to
	// what those scans read; few INSERTs keep the table's growth, and the
	// slowdown it brings, to a few percent over a 40-s run.
	ins, upd, del := familiesWrites()
	ins.weight, upd.weight, del.weight = 4, 1, 1
	w.mix = []*query{point, short, ins, upd, del}
	return w
}

// join: multi-table queries whose stage operators and order depend on
// host-variable selectivity, on data that fits the pool.
func joinWorkload(scale float64) *workloadDef {
	nCust, nOrd, nItem := scaled(10000, scale), scaled(50000, scale), scaled(500, scale)
	const ordPad = 200
	w := &workloadDef{
		name:    "join",
		why:     "two- and three-table joins with inl, hash-join, re-optimization and sort-avoidance plans, parallel adaptive probes and feedback, beside order writes, data fitting the pool",
		clients: 1,
		options: engine.Options{
			EnableFeedback: true,
			Optimizer:      core.Config{Parallelism: runtime.NumCPU(), AdaptiveParallelism: true},
		},
		tables: []tableSpec{
			{name: "CUST", rows: nCust, indexes: []string{"ID", "REGION"}, cols: func() []workload.ColumnSpec {
				return []workload.ColumnSpec{
					{Name: "ID", Gen: &workload.Seq{}},
					{Name: "REGION", Gen: workload.Uniform{Lo: 0, Hi: 50}},
					{Name: "SEG", Gen: workload.Uniform{Lo: 0, Hi: 10}},
					{Name: "NAME", Gen: workload.StringPool{Prefix: "cust-", N: 1000}},
				}
			}},
			{name: "ORD", rows: nOrd, indexes: []string{"CUST", "DAY"}, shuffle: true, cols: func() []workload.ColumnSpec {
				return []workload.ColumnSpec{
					{Name: "ID", Gen: &workload.Seq{}},
					{Name: "CUST", Gen: workload.Uniform{Lo: 0, Hi: int64(nCust)}},
					{Name: "ITEM", Gen: workload.Uniform{Lo: 0, Hi: int64(nItem)}},
					{Name: "DAY", Gen: workload.Uniform{Lo: 0, Hi: 1000}},
					{Name: "QTY", Gen: workload.Uniform{Lo: 1, Hi: 10}},
					{Name: "WH", Gen: workload.Uniform{Lo: 0, Hi: 100}},
					{Name: "PAD", Gen: workload.Pad{Len: ordPad}},
				}
			}},
			{name: "ITEM", rows: nItem, indexes: []string{"ID"}, cols: func() []workload.ColumnSpec {
				return []workload.ColumnSpec{
					{Name: "ID", Gen: &workload.Seq{}},
					{Name: "KIND", Gen: workload.Uniform{Lo: 0, Hi: 20}},
					{Name: "WH", Gen: workload.Uniform{Lo: 0, Hi: 100}},
					{Name: "PRICE", Gen: workload.Uniform{Lo: 1, Hi: 1000}},
				}
			}},
		},
	}
	// orders calls fn on every live ORD row with its CUST and ITEM rows.
	orders := func(o *oracle, fn func(ord, cust, item expr.Row)) {
		cust, item := o.tables["CUST"], o.tables["ITEM"]
		o.tables["ORD"].each(func(r expr.Row) { fn(r, cust.byID(r[1].I), item.byID(r[2].I)) })
	}
	dayRange := func(c *client, stream string, maxWidth float64) engine.Binds {
		d := c.uniform(0, 1000)
		return engine.Binds{"D1": d, "D2": d + int64(c.logUniform(stream, 1, maxWidth)) - 1}
	}
	w.mix = []*query{
		{name: "region_join", class: classSelect, weight: joinReads, orderCol: -1,
			sql: "SELECT CUST.ID, CUST.NAME, ORD.ID, ORD.QTY FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE CUST.REGION >= :R1 AND CUST.REGION <= :R2",
			draw: func(c *client) engine.Binds {
				r := c.uniform(0, 50)
				return engine.Binds{"R1": r, "R2": r + int64(2*c.spread("region_join"))}
			},
			want: func(o *oracle, b engine.Binds) []expr.Row {
				r1, r2 := bind(b, "R1"), bind(b, "R2")
				var out []expr.Row
				orders(o, func(ord, cust, _ expr.Row) {
					if cust != nil && cust[1].I >= r1 && cust[1].I <= r2 {
						out = append(out, expr.Row{cust[0], cust[3], ord[0], ord[4]})
					}
				})
				return out
			},
			seekIndex: "CUST_REGION_IX", seekBind: "R1"},
		{name: "day_join3", class: classSelect, weight: joinReads, orderCol: -1,
			sql:  "SELECT ORD.ID, CUST.NAME, ITEM.KIND FROM ORD JOIN CUST ON ORD.CUST = CUST.ID JOIN ITEM ON ORD.ITEM = ITEM.ID WHERE ORD.DAY >= :D1 AND ORD.DAY <= :D2",
			draw: func(c *client) engine.Binds { return dayRange(c, "day_join3", 12) },
			want: func(o *oracle, b engine.Binds) []expr.Row {
				d1, d2 := bind(b, "D1"), bind(b, "D2")
				var out []expr.Row
				orders(o, func(ord, cust, item expr.Row) {
					if ord[3].I >= d1 && ord[3].I <= d2 && cust != nil && item != nil {
						out = append(out, expr.Row{ord[0], cust[3], item[1]})
					}
				})
				return out
			},
			seekIndex: "ORD_DAY_IX", seekBind: "D1"},
		{name: "ordered_prefix", class: classSelect, weight: joinReads, orderCol: 0,
			sql:  "SELECT CUST.ID, ORD.ID, ORD.DAY FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE CUST.ID <= :C ORDER BY CUST.ID",
			draw: func(c *client) engine.Binds { return engine.Binds{"C": 10 + int64(110*c.spread("ordered_prefix"))} },
			want: func(o *oracle, b engine.Binds) []expr.Row {
				cmax := bind(b, "C")
				var out []expr.Row
				orders(o, func(ord, cust, _ expr.Row) {
					if cust != nil && cust[0].I <= cmax {
						out = append(out, expr.Row{cust[0], ord[0], ord[3]})
					}
				})
				return out
			},
			seekIndex: "CUST_ID_IX", seekBind: "C"},
		{name: "unindexed_equi", class: classSelect, weight: joinReads, orderCol: -1,
			sql:  "SELECT ORD.ID, ITEM.ID FROM ORD JOIN ITEM ON ORD.WH = ITEM.WH WHERE ORD.DAY >= :D1 AND ORD.DAY <= :D2",
			draw: func(c *client) engine.Binds { return dayRange(c, "unindexed_equi", 5) },
			want: func(o *oracle, b engine.Binds) []expr.Row {
				d1, d2 := bind(b, "D1"), bind(b, "D2")
				var out []expr.Row
				o.tables["ORD"].each(func(ord expr.Row) {
					if ord[3].I < d1 || ord[3].I > d2 {
						return
					}
					o.tables["ITEM"].each(func(item expr.Row) {
						if item[2].I == ord[5].I {
							out = append(out, expr.Row{ord[0], item[0]})
						}
					})
				})
				return out
			},
			seekIndex: "ORD_DAY_IX", seekBind: "D1"},
	}
	ins, upd, del := writeQueries("ORD", []string{"ID", "CUST", "ITEM", "DAY", "QTY", "WH", "PAD"},
		func(c *client) []int64 {
			return []int64{c.uniform(0, int64(nCust)), c.uniform(0, int64(nItem)), c.uniform(0, 1000),
				c.uniform(1, 10), c.uniform(0, 100), 0}
		}, 6, 4, func(c *client) int64 { return c.uniform(1, 10) })
	// UPDATE and DELETE by ID scan ORD's whole heap, about 25 ms each
	// against about 4 ms for a join, so with joinReads of each join a
	// deck spends about a fifth of its engine time writing.
	ins.weight, upd.weight, del.weight = 4, 1, 1
	w.mix = append(w.mix, ins, upd, del)
	return w
}

// joinReads is how many times a join deck holds each join query.
const joinReads = 12

var workloadNames = []string{"oltp", "join"}

func newWorkload(name string, scale float64) (*workloadDef, error) {
	var w *workloadDef
	switch name {
	case "oltp":
		w = oltpWorkload(scale)
	case "join":
		w = joinWorkload(scale)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	for i, q := range w.mix {
		q.id = i
	}
	return w, nil
}
