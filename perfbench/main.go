// Command perfbench is the repository's benchmark. It builds one
// workload's database from a seed, drives it through the public engine
// API from closed-loop clients, checks every reply against its own
// oracle, and prints the workload's metrics, ending with one JSON line:
//
//	bash perfbench/run.sh --workload join --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// and a traced half and reports the per-layer metrics, writing the
// spans to <out>/spans-<workload>-seed<seed>.jsonl. METRICS.md maps
// each per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/storage"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// The tests shrink a run: scale multiplies every table's row count;
	// ops, when positive, replaces timing with exactly that many
	// operations per client per phase, so single-client runs repeat
	// exactly; setups is how many times the database is built (setup
	// metrics are medians over the builds).
	scale  float64
	ops    int
	setups int
}

func parseFlags(args []string) (config, error) {
	cfg := config{scale: 1, setups: 3}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the data and every client's operation stream")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = *trace == 1
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, msg := range rep.errors {
		fmt.Fprintln(os.Stderr, "perfbench: wrong result:", msg)
	}
	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		ms[d.name] = value{vals[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report is one run's outcome.
type report struct {
	correct           bool
	attempted, failed int
	errors            []string // the first few wrong results
	e2e, layer        map[string]float64
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	allocs, bytes, gcCycles uint64
	gcCPU, totalCPU         float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocs: u(0), bytes: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4)}
}

// phase is what one stretch of the run measured.
type phase struct {
	wall      time.Duration
	tally     tally
	replies   []replies // per client
	pool      storage.IOStats
	met       [2]core.MetricsSnapshot
	cache     [2]engine.PlanCacheSnapshot
	rt        [2]rtSample
	seekPages []float64
	probeErrs int
	firstOp   int64 // operation IDs of the phase are firstOp..lastOp
	lastOp    int64
}

// bench holds one run's database and clients.
type bench struct {
	cfg     config
	w       *workloadDef
	db      *engine.DB
	clients []*client
	stmts   []map[*query]*engine.Stmt
	index   map[string]*catalog.Index
	opSeq   atomic.Int64 // operation IDs handed out so far
	// rate is the operations per second one client completed in the
	// warm-up; the timed phases size their records from it.
	rate float64
}

func (b *bench) nextOp() int64 { return b.opSeq.Add(1) }

// prepare builds each client's statements once, as an application
// would, before any operation runs.
func (b *bench) prepare(tr *tracer) error {
	b.index = make(map[string]*catalog.Index)
	cat := b.db.Catalog()
	for _, name := range cat.Tables() {
		tab, err := cat.Table(name)
		if err != nil {
			return err
		}
		for _, ix := range tab.Indexes {
			b.index[ix.Name] = ix
		}
	}
	for i := 0; i < b.w.clients; i++ {
		b.clients = append(b.clients, newClient(b.w, b.cfg.seed, i))
		stmts := make(map[*query]*engine.Stmt)
		for _, q := range b.w.mix {
			if q.class != classSelect {
				continue
			}
			op := b.nextOp()
			t0 := time.Now()
			st, err := b.db.Prepare(q.sql)
			if err != nil {
				return fmt.Errorf("prepare %s: %w", q.name, err)
			}
			tr.add(op, 0, "engine.prepare", "sql", t0, time.Now())
			stmts[q] = st
		}
		b.stmts = append(b.stmts, stmts)
	}
	return nil
}

// runPhase runs every client's closed loop for d (or for ops
// operations each, when ops > 0), each client with records sized for
// its operations, and records what the database, the pool and the Go
// runtime counted meanwhile.
func (b *bench) runPhase(d time.Duration, ops int, tr *tracer) *phase {
	n := ops
	if n == 0 {
		n = int(recordHeadroom*b.rate*d.Seconds()) + 64
	}
	ph := &phase{replies: make([]replies, b.w.clients)}
	workers := make([]*worker, b.w.clients)
	for i := range workers {
		workers[i] = &worker{c: b.clients[i], db: b.db, stmts: b.stmts[i], index: b.index, tr: tr, next: b.nextOp,
			replies: &ph.replies[i]}
		workers[i].reserve(n)
	}
	// Every phase starts from a collected heap, so garbage an earlier
	// phase left does not land in this one's timings and counts.
	runtime.GC()
	ph.met[0] = b.db.Metrics()
	ph.cache[0] = b.db.PlanCacheSnapshot()
	pool0 := b.db.Pool().Stats()
	ph.firstOp = b.opSeq.Load() + 1
	ph.rt[0] = readRT()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, wk := range workers {
		wk.start = start
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for n := 0; ops > 0 && n < ops || ops == 0 && time.Now().Before(deadline); n++ {
				wk.run(wk.c.next(b.w))
			}
		}(wk)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.rt[1] = readRT()
	ph.pool = b.db.Pool().Stats().Sub(pool0)
	ph.met[1] = b.db.Metrics()
	ph.cache[1] = b.db.PlanCacheSnapshot()
	ph.lastOp = b.opSeq.Load()
	for _, wk := range workers {
		ph.tally.merge(&wk.tally)
		ph.seekPages = append(ph.seekPages, wk.seekPages...)
		ph.probeErrs += wk.probeErrs
	}
	return ph
}

// maxTracedOps caps the traced half at this many operations per client
// when the untraced half ran more, so the spans it keeps in memory and
// writes out stay in the tens of MB on fast workloads.
const maxTracedOps = 50000

// recordHeadroom is how many times the warm-up rate a timed phase sizes
// its records for; the warm-up runs colder than the phases after it.
const recordHeadroom = 2

func run(cfg config, log io.Writer) (*report, error) {
	w, err := newWorkload(cfg.workload, cfg.scale)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	began := time.Now()
	var setups []setupStats
	var db *engine.DB
	for i := 0; i < cfg.setups; i++ {
		db = nil // let the previous build go before the next is measured
		runtime.GC()
		d, st, err := setup(w, cfg.seed, tr, -int64(i+1))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		db = d
		setups = append(setups, st)
	}
	heapPages, indexNodes := pageCounts(db)
	hdr := header(cfg, w, heapPages, indexNodes)
	for _, k := range sortedKeys(hdr) {
		fmt.Fprintf(log, "# %s: %s\n", k, hdr[k])
	}

	setupsDone := time.Now()
	o := newOracle(w, cfg.seed)
	b := &bench{cfg: cfg, w: w, db: db}
	if err := b.prepare(tr); err != nil {
		return nil, err
	}

	secs := time.Duration(cfg.seconds * float64(time.Second))
	warmOps := 0
	if cfg.ops > 0 {
		warmOps = max(1, cfg.ops/10)
	}
	warm := b.runPhase(min(time.Second, secs/10), warmOps, nil)
	b.rate = ratio(float64(warm.tally.ops), warm.wall.Seconds()*float64(w.clients))
	phases := []*phase{warm}
	var measured, traced *phase
	if cfg.trace {
		measured = b.runPhase(secs/2, cfg.ops, nil)
		tracedOps := cfg.ops
		if tracedOps == 0 && measured.tally.ops > maxTracedOps*w.clients {
			tracedOps = maxTracedOps
		}
		traced = b.runPhase(secs/2, tracedOps, tr)
		phases = append(phases, measured, traced)
	} else {
		measured = b.runPhase(secs, cfg.ops, nil)
		phases = append(phases, measured)
	}

	checking := time.Now()
	rep := &report{}
	probeErrs := 0
	// A fresh copy of each client replays its stream to recover the
	// bindings, which the records do not keep.
	replay := make([]*client, w.clients)
	for i := range replay {
		replay[i] = newClient(w, cfg.seed, i)
	}
	for _, ph := range phases {
		probeErrs += ph.probeErrs
		for c := range ph.replies {
			rp := &ph.replies[c]
			for i := range rp.recs {
				rep.attempted++
				out := rp.outcome(i, w.mix)
				err := replay[c].redraw(w, &out)
				if err == nil {
					err = o.check(&out)
				}
				if err != nil {
					rep.failed++
					if len(rep.errors) < 5 {
						rep.errors = append(rep.errors, err.Error())
					}
				}
			}
		}
	}
	rep.correct = rep.failed == 0 && probeErrs == 0 && rep.attempted > 0
	if probeErrs > 0 {
		rep.errors = append(rep.errors, fmt.Sprintf("%d out-of-band probes failed", probeErrs))
	}

	fmt.Fprintf(log, "# timing: setups=%.1fs phases=%.1fs checks=%.1fs\n",
		setupsDone.Sub(began).Seconds(), checking.Sub(setupsDone).Seconds(), time.Since(checking).Seconds())
	rep.e2e = endToEndValues(setups, measured)
	if cfg.trace {
		rep.layer = perLayerValues(db, setups, measured, traced, tr.finished())
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, hdr, tr.finished()); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# spans: %s\n", path)
	}

	fmt.Fprintf(log, "# ops: attempted=%d failed=%d failed_frac=%g selects=%d inserts=%d modifies=%d\n",
		rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)),
		len(measured.tally.selects), len(measured.tally.inserts), len(measured.tally.modifies))
	fmt.Fprintf(log, "# engine time by class (timed phase):%s\n", classShares(&measured.tally))
	fmt.Fprintf(log, "# one-second window rates (1/s):%s\n", fmtList(windowRates(measured.tally.doneAt, measured.wall)))
	printMetrics(log, "end_to_end", endToEnd, rep.e2e)
	if cfg.trace {
		printMetrics(log, "per_layer", perLayer, rep.layer)
	}
	return rep, nil
}

// header records what a result depends on besides the code: the seed,
// the toolchain and machine, and the workload's options and sizes.
func header(cfg config, w *workloadDef, heapPages, indexNodes int) map[string]string {
	opts := w.options
	oc := opts.Optimizer
	tables := make([]string, len(w.tables))
	for i, t := range w.tables {
		tables[i] = fmt.Sprintf("%s rows=%d indexes=%s", t.name, t.rows, strings.Join(t.indexes, ","))
	}
	pool := "unbounded"
	if opts.PoolFrames > 0 {
		pool = fmt.Sprintf("%d frames (%.3f of heap+index pages)", opts.PoolFrames,
			float64(opts.PoolFrames)/float64(heapPages+indexNodes))
	}
	return map[string]string{
		"run":     fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%v setups=%d", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.setups),
		"machine": fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d %s/%s", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH),
		"options": fmt.Sprintf("clients=%d pool=%s parallelism=%d adaptive=%v feedback=%v plan_cache=%v",
			w.clients, pool, oc.Parallelism, oc.AdaptiveParallelism, opts.EnableFeedback, opts.PlanCache.Enable),
		"sizes": fmt.Sprintf("%s; heap_pages=%d index_nodes=%d", strings.Join(tables, "; "), heapPages, indexNodes),
		"why":   w.why,
	}
}

// classShares lists each operation class's share of the time spent in
// engine calls, its operation count and its mean latency.
func classShares(t *tally) string {
	total := 0.0
	for _, x := range t.classUS {
		total += x
	}
	var sb strings.Builder
	for c, x := range t.classUS {
		if n := t.classOps[c]; n > 0 {
			fmt.Fprintf(&sb, " %s=%.3f (%d ops, mean %.1fus)", opClass(c), ratio(x, total), n, x/float64(n))
		}
	}
	return sb.String()
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(log io.Writer, kind string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(log, "# %s %s = %.6g %s\n", kind, d.name, vals[d.name], d.unit)
	}
}

func fmtList(xs []float64) string {
	var sb strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&sb, " %.0f", x)
	}
	return sb.String()
}
