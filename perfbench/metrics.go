package main

import (
	"math"
	"sort"
	"strconv"
	"time"

	"rdbdyn/internal/core"
	"rdbdyn/internal/engine"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees, taken from the
// untraced phase. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"throughput_ops_s", "1/s"},
	{"select_p50_us", "us"},
	{"select_p99_us", "us"},
	{"first_row_p50_us", "us"},
	{"insert_p50_us", "us"},
	{"modify_p50_us", "us"},
	{"io_per_op", "pages"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
}

var (
	tactics  = []string{"tscan", "sscan", "fscan", "background-only", "fast-first", "sorted", "index-only", "empty-range", "join"}
	joinOps  = []string{core.JoinOpNL, core.JoinOpINL, core.JoinOpRIDX, core.JoinOpHJ}
	selfLays = []string{"bench", "engine", "sql", "estimate", "btree"}
)

// perLayer are the metrics of single layers, reported by --trace 1.
// METRICS.md says which end-to-end metric each should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sql.parse_us", "us"},
		{"sql.compile_us", "us"},
		{"engine.open_us", "us"},
		{"engine.first_row_us", "us"},
		{"engine.drain_us", "us"},
		{"engine.close_us", "us"},
		{"engine.plan_share", "frac"},
		{"engine.exec_us.insert", "us"},
		{"engine.exec_us.update", "us"},
		{"engine.exec_us.delete", "us"},
		{"engine.plancache.hit_ratio", "frac"},
		{"engine.plancache.demotions", "count"},
		{"engine.plancache.invalidations", "count"},
		{"core.abandons_per_query", "count"},
		{"core.switches_per_query", "count"},
		{"core.races_per_query", "count"},
		{"core.fg_row_share", "frac"},
	}
	for _, t := range tactics {
		defs = append(defs, metricDef{"core.tactic_share." + t, "frac"})
	}
	defs = append(defs,
		metricDef{"core.join.intermediate_rows_per_query", "rows"},
		metricDef{"core.join.reopt_per_query", "count"},
	)
	for _, op := range joinOps {
		defs = append(defs, metricDef{"core.join.op_share." + op, "frac"})
	}
	defs = append(defs,
		metricDef{"core.join.sort_avoided_share", "frac"},
		metricDef{"core.parallel.width_mean", "workers"},
		metricDef{"core.parallel.seq_downgrade_share", "frac"},
		metricDef{"estimate.appraise_us", "us"},
		metricDef{"estimate.err_log2_abs_mean", "log2"},
		metricDef{"estimate.join.err_log2_abs_mean", "log2"},
		metricDef{"feedback.corrections", "count"},
		metricDef{"feedback.max_abs_log2_factor", "log2"},
		metricDef{"rid.final_list_len_mean", "rids"},
		metricDef{"rid.borrow_overflows_per_query", "count"},
		metricDef{"btree.create_index_s", "s"},
		metricDef{"btree.pages_per_lookup", "pages"},
		metricDef{"btree.seek_us", "us"},
		metricDef{"storage.hit_ratio", "frac"},
		metricDef{"storage.setup_io", "pages"},
		metricDef{"catalog.load_us_per_row", "us"},
		metricDef{"workload.generate_s", "s"},
		metricDef{"go.gc_cpu_frac", "frac"},
		metricDef{"go.gc_cycles_per_kop", "count"},
		metricDef{"trace.untraced_throughput_ops_s", "1/s"},
		metricDef{"trace.traced_throughput_ops_s", "1/s"},
		metricDef{"trace.overhead_frac", "frac"},
	)
	for _, l := range selfLays {
		defs = append(defs, metricDef{"trace.self_us_per_op." + l, "us"})
	}
	return defs
}()

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func setupMedian(setups []setupStats, f func(setupStats) float64) float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = f(s)
	}
	return median(xs)
}

// windowedRate splits the phase into about one-second windows and
// reports the median of their completion rates: a burst of lost CPU on
// a shared machine then moves one window, not the result. Phases
// shorter than two seconds report their plain rate.
func windowedRate(doneAt []float64, wall time.Duration) float64 {
	return median(windowRates(doneAt, wall))
}

// windowRates is the completion rate in each of the phase's one-second
// windows (one rate over the whole phase when it is shorter than 2 s).
func windowRates(doneAt []float64, wall time.Duration) []float64 {
	secs := wall.Seconds()
	n := int(secs)
	if n < 2 {
		return []float64{ratio(float64(len(doneAt)), secs)}
	}
	rates := make([]float64, n)
	for _, t := range doneAt {
		rates[min(int(t/secs*float64(n)), n-1)]++
	}
	for i := range rates {
		rates[i] /= secs / float64(n)
	}
	return rates
}

// segmentedP99 splits the samples by completion time into as many equal
// stretches of the phase as leave at least 500 samples each (at most
// sixteen), takes each stretch's 99th percentile, and reports their
// median, so a slow spell of a shared machine that covers less than
// half the phase does not move it. A stretch has five samples beyond
// its p99; a phase of at least 1000 samples has ten beyond the p99.
func segmentedP99(xs, at []float64, wall time.Duration) float64 {
	k := min(16, len(xs)/500)
	if k < 2 {
		return quantile(xs, 0.99)
	}
	segs := make([][]float64, k)
	for i, x := range xs {
		j := min(int(at[i]/wall.Seconds()*float64(k)), k-1)
		segs[j] = append(segs[j], x)
	}
	p99s := make([]float64, k)
	for j, seg := range segs {
		p99s[j] = quantile(seg, 0.99)
	}
	return median(p99s)
}

func endToEndValues(setups []setupStats, m *phase) map[string]float64 {
	t := &m.tally
	ops := float64(t.ops)
	return map[string]float64{
		"setup_s":          setupMedian(setups, func(s setupStats) float64 { return s.total.Seconds() }),
		"heap_mb":          setupMedian(setups, func(s setupStats) float64 { return float64(s.heapBytes) / (1 << 20) }),
		"throughput_ops_s": windowedRate(t.doneAt, m.wall),
		"select_p50_us":    median(t.selects),
		"select_p99_us":    segmentedP99(t.selects, t.selectAt, m.wall),
		"first_row_p50_us": median(t.firstRows),
		"insert_p50_us":    median(t.inserts),
		"modify_p50_us":    median(t.modifies),
		"io_per_op":        ratio(float64(t.pageAccesses), ops),
		"allocs_per_op":    ratio(float64(m.rt[1].allocs-m.rt[0].allocs), ops),
		"bytes_per_op":     ratio(float64(m.rt[1].bytes-m.rt[0].bytes), ops),
	}
}

// estErrLog2 maps the estimate-error histogram's buckets to |log2| of
// the projected-over-actual I/O ratio.
var estErrLog2 = map[string]float64{
	"<=1/8x": 3, "1/4x": 2, "1/2x": 1, "~1x": 0, "2x": 1, "4x": 2, ">=8x": 3, "0-I/O": 0,
}

// perLayerValues derives the per-layer metrics. Counts come from the
// untraced phase m, so the probes cannot disturb them; times come from
// the traced phase's spans.
func perLayerValues(db *engine.DB, setups []setupStats, m, traced *phase, spans []span) map[string]float64 {
	v := make(map[string]float64)
	inPhase := func(ph *phase) []span {
		var out []span
		for _, s := range spans {
			if s.Op >= ph.firstOp && s.Op <= ph.lastOp {
				out = append(out, s)
			}
		}
		return out
	}
	ts := inPhase(traced)
	v["sql.parse_us"] = median(durations(ts, "sql.parse"))
	v["sql.compile_us"] = median(durations(ts, "sql.compile"))
	open, first, drain, cls := durations(ts, "engine.open"), durations(ts, "engine.first_row"), durations(ts, "engine.drain"), durations(ts, "engine.close")
	v["engine.open_us"] = median(open)
	v["engine.first_row_us"] = median(first)
	v["engine.drain_us"] = median(drain)
	v["engine.close_us"] = median(cls)
	sum := func(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
	v["engine.plan_share"] = ratio(sum(open), sum(open)+sum(first)+sum(drain)+sum(cls))
	for _, k := range []string{"insert", "update", "delete"} {
		v["engine.exec_us."+k] = median(durations(ts, "engine.exec."+k))
	}
	hits := float64(m.cache[1].Hits - m.cache[0].Hits)
	v["engine.plancache.hit_ratio"] = ratio(hits, hits+float64(m.cache[1].Misses-m.cache[0].Misses))
	v["engine.plancache.demotions"] = float64(m.cache[1].Demotions - m.cache[0].Demotions)
	v["engine.plancache.invalidations"] = float64(m.cache[1].Invalidations - m.cache[0].Invalidations)

	t := &m.tally
	q := float64(t.queries)
	v["core.abandons_per_query"] = ratio(float64(t.abandons), q)
	v["core.switches_per_query"] = ratio(float64(t.switches), q)
	v["core.races_per_query"] = ratio(float64(t.races), q)
	v["core.fg_row_share"] = ratio(float64(t.fg), float64(t.rows))
	for _, name := range tactics {
		v["core.tactic_share."+name] = ratio(float64(t.tactics[name]), q)
	}
	j := float64(t.joins)
	v["core.join.intermediate_rows_per_query"] = ratio(float64(t.intermediate), j)
	v["core.join.reopt_per_query"] = ratio(float64(t.reopts), j)
	probes := 0
	for _, n := range t.stageOps {
		probes += n
	}
	for _, op := range joinOps {
		v["core.join.op_share."+op] = ratio(float64(t.stageOps[op]), float64(probes))
	}
	v["core.join.sort_avoided_share"] = ratio(float64(t.sortsSaved), float64(t.joinOrdered))
	var widths, decisions float64
	for label, n := range m.met[1].ParallelWidths {
		d := float64(n - m.met[0].ParallelWidths[label])
		w, _ := strconv.ParseFloat(label, 64)
		widths += w * d
		decisions += d
	}
	v["core.parallel.width_mean"] = ratio(widths, decisions)
	v["core.parallel.seq_downgrade_share"] = ratio(float64(m.met[1].ParallelSeqDowngrades-m.met[0].ParallelSeqDowngrades), decisions)

	v["estimate.appraise_us"] = median(durations(ts, "estimate.appraise"))
	var errSum, errN float64
	for label, n := range m.met[1].EstimateErrorLog {
		d := float64(n - m.met[0].EstimateErrorLog[label])
		errSum += estErrLog2[label] * d
		errN += d
	}
	v["estimate.err_log2_abs_mean"] = ratio(errSum, errN)
	v["estimate.join.err_log2_abs_mean"] = ratio(t.joinErrSum, float64(t.joinStages))

	fb := db.FeedbackSnapshot()
	v["feedback.corrections"] = float64(len(fb))
	v["feedback.max_abs_log2_factor"] = 0
	for _, c := range fb {
		if c.Card > 0 {
			v["feedback.max_abs_log2_factor"] = math.Max(v["feedback.max_abs_log2_factor"], math.Abs(math.Log2(c.Card)))
		}
	}

	v["rid.final_list_len_mean"] = ratio(float64(t.finalListSum), float64(t.finalLists))
	v["rid.borrow_overflows_per_query"] = ratio(float64(t.overflows), q)

	v["btree.create_index_s"] = setupMedian(setups, func(s setupStats) float64 { return s.index.Seconds() })
	v["btree.pages_per_lookup"] = mean(traced.seekPages)
	v["btree.seek_us"] = median(durations(ts, "btree.seek"))

	ops := float64(t.ops)
	v["storage.hit_ratio"] = ratio(float64(m.pool.Hits), float64(m.pool.Hits+m.pool.Reads))
	v["storage.setup_io"] = setupMedian(setups, func(s setupStats) float64 { return float64(s.io.Reads + s.io.Writes + s.io.Hits) })
	v["catalog.load_us_per_row"] = setupMedian(setups, func(s setupStats) float64 { return us(s.load) / float64(s.rows) })
	v["workload.generate_s"] = setupMedian(setups, func(s setupStats) float64 { return s.generate.Seconds() })

	v["go.gc_cpu_frac"] = ratio(m.rt[1].gcCPU-m.rt[0].gcCPU, m.rt[1].totalCPU-m.rt[0].totalCPU)
	v["go.gc_cycles_per_kop"] = ratio(1000*float64(m.rt[1].gcCycles-m.rt[0].gcCycles), ops)

	untr, tr := ratio(ops, m.wall.Seconds()), ratio(float64(traced.tally.ops), traced.wall.Seconds())
	v["trace.untraced_throughput_ops_s"] = untr
	v["trace.traced_throughput_ops_s"] = tr
	// The traced half always runs second and also makes the probes, so
	// this is the cost of a traced run, not of the spans alone.
	v["trace.overhead_frac"] = 1 - ratio(tr, untr)
	self := selfTime(inPhase(traced))
	for _, l := range selfLays {
		v["trace.self_us_per_op."+l] = ratio(us(self[l]), float64(traced.tally.ops))
	}
	return v
}
