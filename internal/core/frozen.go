package core

import (
	"errors"
	"fmt"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
)

// ErrPlanStale reports that a cached plan references an index that no
// longer exists; the caller must drop the plan and re-enter dynamic
// competition.
var ErrPlanStale = errors.New("core: cached plan references a missing index")

// CachedPlan is the engine plan cache's distillation of one completed
// dynamic retrieval: the tactic and the index order that won, plus the
// estimated entry counts that seeded the winning arrangement. It names
// indexes rather than holding pointers, so a dropped-and-recreated
// index is re-resolved (or detected missing) at replay time, and holds
// no bind values — the replay recomputes its scan bounds from the
// current bindings, exactly as a frozen plan in the paper "still sees
// run-time values".
type CachedPlan struct {
	// Tactic is the tacticKind string of the winning arrangement.
	Tactic string
	// Indexes is the index order to replay: for sscan/fscan the single
	// chosen index; for background-only the adopted Jscan order; for
	// fast-first the borrow source; for sorted the order-delivering
	// index followed by the filter Jscan's order. Empty for tscan.
	Indexes []string
	// RIDs carries the initial-stage entry estimates parallel to
	// Indexes (0 when unknown), seeding the replay Jscan's bookkeeping.
	RIDs []float64
}

func (p *CachedPlan) String() string {
	if p == nil {
		return "<none>"
	}
	if len(p.Indexes) == 0 {
		return p.Tactic
	}
	s := p.Tactic + "("
	for i, n := range p.Indexes {
		if i > 0 {
			s += ","
		}
		s += n
	}
	return s + ")"
}

// Scan names the plan's driving scan the way retrieval strategies
// spell it — Tscan, Sscan(IX), Fscan(IX) — which is how the static
// baseline labels its plans. Jscan-driven plans render as String.
func (p *CachedPlan) Scan() string {
	switch {
	case p.Tactic == "tscan":
		return "Tscan"
	case p.Tactic == "sscan" && len(p.Indexes) == 1:
		return "Sscan(" + p.Indexes[0] + ")"
	case p.Tactic == "fscan" && len(p.Indexes) == 1:
		return "Fscan(" + p.Indexes[0] + ")"
	}
	return p.String()
}

// Fingerprint canonically identifies the plan for win-streak counting.
func (p *CachedPlan) Fingerprint() string { return p.String() }

// CapturePlan distills a completed retrieval's stats into a replayable
// CachedPlan. It returns ok=false when the run is not worth caching:
// the competition intervened mid-flight (strategy switch, race, borrow
// overflow, mid-scan abandonment, a completed-but-useless list), the
// arrangement is not replayable deterministically, or the tactic has
// no frozen form. The test is structural: a capturable run's replay
// performs exactly the original's productive work — scans that were
// merely *skipped* before starting cost nothing and do not block
// capture.
func CapturePlan(st *RetrievalStats) (*CachedPlan, bool) {
	// hj stages are refused on their own grounds, ahead of the blanket
	// join rejection: a hash build's contents are run-time inner state
	// no replay can re-derive, so even a future per-operator
	// join-freezing scheme must keep refusing these stages.
	for i := range st.JoinStages {
		if st.JoinStages[i].Operator == JoinOpHJ {
			return nil, false
		}
	}
	// Multi-table retrievals are never frozen: a join's operator and
	// order choices hinge on intermediate cardinalities the replay
	// machinery cannot re-derive, and mid-flight re-optimization is the
	// whole point of running them dynamically.
	if st.Tactic == "join" || len(st.JoinStages) > 0 {
		return nil, false
	}
	var chosen *TraceEvent
	var started []string
	var switches []*TraceEvent
	for i := range st.Events {
		ev := &st.Events[i]
		switch ev.Kind {
		case EvTacticChosen:
			if chosen == nil {
				chosen = ev
			}
		case EvScanStarted:
			// Per-index background scan openings (Jscan emits one per
			// index it actually reads; skips never start).
			if ev.Scan == "Jscan" && len(ev.Indexes) == 1 {
				started = append(started, ev.Indexes[0])
			}
		case EvStrategySwitch:
			switches = append(switches, ev)
		case EvBorrowOverflow, EvRaceStarted, EvRaceResolved:
			return nil, false
		}
	}
	if chosen == nil {
		return nil, false
	}
	if len(switches) > 0 {
		// One exactly-replayable switch exists: a background-only Jscan
		// that skipped every index up front (zero scan I/O, no RID list
		// materialized) and recommended Tscan before anything ran. The
		// whole retrieval was one sequential scan; freeze it as tscan.
		if st.Tactic == "background-only" && len(switches) == 1 &&
			switches[0].Scan == "Tscan" && len(started) == 0 &&
			len(st.WinningOrder) == 0 && st.FinalListLen < 0 {
			return &CachedPlan{Tactic: "tscan"}, true
		}
		return nil, false
	}
	// Every background scan that opened must be in the adopted order,
	// in the same positions: a started-but-unadopted scan (mid-flight
	// abandonment or a complete-but-useless list) burned I/O the replay
	// would not reproduce.
	jscanClean := func() bool {
		if len(st.WinningOrder) != len(started) {
			return false
		}
		for i, n := range started {
			if st.WinningOrder[i] != n {
				return false
			}
		}
		return len(started) > 0
	}
	ridsFor := func(names []string) []float64 {
		out := make([]float64, len(names))
		for i, n := range names {
			for _, es := range st.Estimates {
				if es.Index == n {
					out[i] = es.RIDs
					break
				}
			}
		}
		return out
	}
	switch st.Tactic {
	case "tscan":
		if chosen.Scan != "Tscan" {
			return nil, false
		}
		return &CachedPlan{Tactic: "tscan"}, true
	case "sscan", "fscan":
		if len(chosen.Indexes) == 0 || len(started) > 0 {
			return nil, false
		}
		ix := chosen.Indexes[:1]
		return &CachedPlan{Tactic: st.Tactic, Indexes: ix, RIDs: ridsFor(ix)}, true
	case "background-only":
		if chosen.Scan != "Jscan" || !jscanClean() {
			return nil, false
		}
		order := append([]string(nil), st.WinningOrder...)
		return &CachedPlan{Tactic: st.Tactic, Indexes: order, RIDs: ridsFor(order)}, true
	case "fast-first":
		// Only the single-source borrow arrangement replays exactly: a
		// multi-index run's later scans overlap the foreground drain.
		if chosen.Scan != "Jscan" || !jscanClean() || len(st.WinningOrder) != 1 {
			return nil, false
		}
		order := append([]string(nil), st.WinningOrder...)
		return &CachedPlan{Tactic: st.Tactic, Indexes: order, RIDs: ridsFor(order)}, true
	case "sorted":
		// chosen.Indexes = [order-delivering index, filter candidates...];
		// the replay pairs the Fscan with the adopted filter order.
		if len(chosen.Indexes) < 2 || !jscanClean() {
			return nil, false
		}
		order := append([]string{chosen.Indexes[0]}, st.WinningOrder...)
		return &CachedPlan{Tactic: st.Tactic, Indexes: order, RIDs: ridsFor(order)}, true
	default:
		// index-only (always race-resolved), sort(...), empty-range,
		// error: no frozen form.
		return nil, false
	}
}

// RunPlan executes a frozen plan for q with no optimizer behind it: the
// static baseline of the paper, one strategy with no run-time
// switching. Scan bounds come from the current bindings (a frozen plan
// still sees run-time values; what it cannot do is change strategy),
// and an ORDER BY the plan does not deliver is met by materializing and
// sorting, as a static plan's SORT node would. It records no metrics,
// feeds no feedback, samples no cluster ratio and spends no estimation
// I/O. A nil ec runs free.
func RunPlan(ec *ExecCtx, q *Query, p *CachedPlan, cfg Config) Rows {
	rows, err := runPlan(ec, q, p, cfg.WithDefaults(), nil)
	if err != nil {
		return errRows{err: err}
	}
	return rows
}

// RunFrozen replays a cached plan for q through RunPlan's runner,
// skipping estimation and competition: the saving is the estimation
// stage and the competition bookkeeping. Row content, order, and
// productive I/O match the dynamic run the plan was captured from, as
// long as the data hasn't drifted.
//
// Unlike RunPlan, a replay counts a query and a tactic win, and a
// replayed Jscan records its winning order for the next dynamic run;
// it still feeds neither the estimate-error histogram nor the feedback
// registry. ErrPlanStale surfaces (through the Rows) when a referenced
// index is gone.
func (o *Optimizer) RunFrozen(ec *ExecCtx, q *Query, p *CachedPlan) Rows {
	o.metrics.recordQuery()
	rows, err := runPlan(ec, q, p, o.cfg, o)
	if err != nil {
		if isCancellation(err) && ec.markCancelRecorded() {
			o.metrics.recordCancellation(err)
		}
		return errRows{err: err}
	}
	return rows
}

// runPlan is the one frozen-plan runner. o is the optimizer replaying a
// cached plan, or nil for a static run.
func runPlan(ec *ExecCtx, q *Query, p *CachedPlan, cfg Config, o *Optimizer) (Rows, error) {
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if q.Table == nil {
		return nil, fmt.Errorf("core: query without table")
	}
	if p == nil {
		return nil, fmt.Errorf("core: nil cached plan")
	}
	if err := exprValidateQuery(q); err != nil {
		return nil, err
	}
	ixs := make([]*catalog.Index, len(p.Indexes))
	for i, name := range p.Indexes {
		ix := q.Table.IndexByName(name)
		if ix == nil {
			return nil, fmt.Errorf("%w: %s.%s", ErrPlanStale, q.Table.Name, name)
		}
		ixs[i] = ix
	}
	if p.Tactic != "tscan" && len(ixs) == 0 {
		return nil, fmt.Errorf("core: %s plan without index", p.Tactic)
	}
	// An index delivers the requested order forward; a descending
	// request scans the same index in reverse.
	switch {
	case len(q.OrderBy) == 0:
	case (p.Tactic == "sscan" || p.Tactic == "fscan" || p.Tactic == "sorted") && ixs[0].DeliversOrder(q.OrderBy):
	default:
		return runSortNode(q, func(inner *Query) (Rows, error) {
			return startPlan(ec, inner, p, ixs, cfg, o)
		})
	}
	return startPlan(ec, q, p, ixs, cfg, o)
}

// startPlan builds the retrieval for a frozen plan whose order, if any,
// the plan delivers.
func startPlan(ec *ExecCtx, q *Query, p *CachedPlan, ixs []*catalog.Index, cfg Config, o *Optimizer) (Rows, error) {
	var metrics *Metrics
	detail := "static plan"
	if o != nil {
		metrics = o.metrics
		detail = "frozen plan cache replay"
	}
	// A contradictory sargable range on any index makes the whole
	// conjunction unsatisfiable: end of data at once, zero I/O. Every
	// range recomputed below is therefore non-empty.
	cl := Classify(q)
	if cl.EmptyRange {
		st := RetrievalStats{FinalListLen: -1, QueryID: nextQueryID(), Tactic: "empty-range"}
		trc := &tracer{st: &st, sink: cfg.Trace, extra: ec.traceSink(), metrics: metrics}
		trc.emit(TraceEvent{Kind: EvEmptyRange, Detail: detail + ": contradictory sargable range, end of data at once"})
		return &emptyRows{stats: st}, nil
	}
	// Competition off: the run scans exactly the plan's order — no
	// skips, no races, no abandonment.
	cfg.DisableCompetition = true
	cfg.RaceFactor = -1
	st := RetrievalStats{FinalListLen: -1, QueryID: nextQueryID()}
	r := &retrieval{q: q, cfg: cfg, st: st, ec: ec, out: &rowQueue{}, metrics: metrics, frozenReplay: true}
	r.trc = &tracer{st: &r.st, sink: cfg.Trace, extra: ec.traceSink(), metrics: metrics}

	switch p.Tactic {
	case "tscan":
		r.tactic = tacticTscan
		r.fg = newTscan(ec, q, r.out, cfg.effectiveWorkers())
		r.trc.emit(TraceEvent{
			Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: "Tscan",
			EstimatedIO: float64(q.Table.Pages()), Detail: detail,
		})
	case "sscan", "fscan":
		ix := ixs[0]
		lo, hi, _, _ := ix.RestrictionBounds(q.Restriction, q.Binds)
		desc := len(q.OrderBy) > 0 && q.OrderDesc
		var fg stepper
		var err error
		if p.Tactic == "sscan" {
			r.tactic = tacticSscan
			fg, err = newSscan(ec, q, ix, lo, hi, r.out, cfg.StepEntries, desc)
		} else {
			r.tactic = tacticFscan
			fg, err = newFscan(ec, q, ix, lo, hi, r.out, cfg.StepEntries, desc)
		}
		if err != nil {
			return nil, err
		}
		r.fg = fg
		r.trc.emit(TraceEvent{
			Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: fg.name(),
			Indexes: []string{ix.Name}, Detail: detail,
		})
	case "background-only":
		r.tactic = tacticBackgroundOnly
		r.model = o.costModel(q, cl)
		ests := frozenEstimates(q, ixs, p.RIDs)
		j := newJscan(ec, q, cfg, r.model, ests, nil, r.trc)
		j.onDone = o.observer(q)
		r.bg = j
		r.trc.emit(TraceEvent{
			Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: "Jscan", Indexes: p.Indexes,
			EstimatedIO: bgPlanEst(r.model, ests[0]), Detail: detail,
		})
	case "fast-first":
		r.tactic = tacticFastFirst
		r.model = o.costModel(q, cl)
		ests := frozenEstimates(q, ixs, p.RIDs)
		borrow := &ridQueue{}
		j := newJscan(ec, q, cfg, r.model, ests, borrow, r.trc)
		j.onDone = o.observer(q)
		r.bg = j
		r.fg = newBorrowFetcher(ec, q, borrow, r.out, cfg.FgBufferCap)
		r.trc.emit(TraceEvent{
			Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: "Jscan", Indexes: p.Indexes,
			EstimatedIO: bgPlanEst(r.model, ests[0]),
			Detail:      detail + ", foreground borrows from " + ixs[0].Name,
		})
	case "sorted":
		r.tactic = tacticSorted
		r.model = o.costModel(q, cl)
		ordIx := ixs[0]
		lo, hi, _, _ := ordIx.RestrictionBounds(q.Restriction, q.Binds)
		fg, err := newFscan(ec, q, ordIx, lo, hi, r.out, cfg.StepEntries, q.OrderDesc)
		if err != nil {
			return nil, err
		}
		var restRIDs []float64
		if len(p.RIDs) > 1 {
			restRIDs = p.RIDs[1:]
		}
		fcfg := cfg
		fcfg.RID.FilterOnly = true
		j := newJscan(ec, q, fcfg, r.model, frozenEstimates(q, ixs[1:], restRIDs), nil, r.trc)
		j.onDone = o.observer(q)
		r.fg = fg
		r.bg = j
		r.trc.emit(TraceEvent{
			Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: fg.name(), Indexes: p.Indexes,
			Detail: detail,
		})
	default:
		return nil, fmt.Errorf("core: cached plan has no frozen form for tactic %q", p.Tactic)
	}
	return r, nil
}

// frozenEstimates rebuilds the IndexEstimate slice a frozen Jscan
// needs: bounds recomputed from the current bindings (pure key
// arithmetic, zero I/O) and the captured entry estimates.
func frozenEstimates(q *Query, ixs []*catalog.Index, rids []float64) []estimate.IndexEstimate {
	ests := make([]estimate.IndexEstimate, len(ixs))
	for i, ix := range ixs {
		lo, hi, sarg, _ := ix.RestrictionBounds(q.Restriction, q.Binds)
		var est float64
		if i < len(rids) {
			est = rids[i]
		}
		ests[i] = estimate.IndexEstimate{Index: ix, Lo: lo, Hi: hi, Sargable: sarg, RIDs: est}
	}
	return ests
}

// exprValidateQuery checks a query's restriction and column positions
// before any run starts.
func exprValidateQuery(q *Query) error {
	if err := expr.Validate(q.Restriction); err != nil {
		return err
	}
	for _, c := range append(append([]int(nil), q.Projection...), q.OrderBy...) {
		if c < 0 || c >= len(q.Table.Columns) {
			return fmt.Errorf("core: column position %d out of range", c)
		}
	}
	return nil
}
