package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/feedback"
)

// runOut drains rows to the end or the first error and closes them.
func runOut(rows Rows) ([]expr.Row, RetrievalStats, error) {
	defer rows.Close()
	var out []expr.Row
	for {
		row, ok, err := rows.Next()
		if err != nil {
			return out, rows.Stats(), err
		}
		if !ok {
			return out, rows.Stats(), nil
		}
		out = append(out, row)
	}
}

// TestStaticPlanMatchesRunFrozen pins the one frozen-plan runner: for
// tscan, sscan and fscan plans the static entry (RunPlan) and the plan
// cache's replay (Optimizer.RunFrozen) return the same rows, in the same
// order, with the same attributed I/O, and the static run touches
// neither the optimizer's metrics nor the feedback registry its Config
// carries.
func TestStaticPlanMatchesRunFrozen(t *testing.T) {
	f := newFixture(t, 3000, "AGE", "ID")
	age, id := f.col(t, "AGE"), f.col(t, "ID")
	fb := feedback.New(0)
	o := NewOptimizer(Config{Feedback: fb})
	// Seed the registry and metrics with real dynamic runs, so "left
	// unchanged" compares non-trivial state.
	for _, lim := range []int64{5, 40} {
		q := &Query{Table: f.tab, Restriction: expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(lim)))}
		drain(t, o.Run(q))
	}

	ageLT := func(v int64) expr.Expr { return expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(v))) }
	ageGE := func(v int64) expr.Expr { return expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(v))) }
	contradictory := expr.NewAnd(ageGE(50), ageLT(10))
	tscan := &CachedPlan{Tactic: "tscan"}
	sscanAge := &CachedPlan{Tactic: "sscan", Indexes: []string{"IX_AGE"}}
	fscanAge := &CachedPlan{Tactic: "fscan", Indexes: []string{"IX_AGE"}}
	fscanID := &CachedPlan{Tactic: "fscan", Indexes: []string{"IX_ID"}}
	free := func() *ExecCtx { return nil }
	cancelled := func() *ExecCtx {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return NewExecCtx(ctx, 0)
	}
	budget := func() *ExecCtx { return NewExecCtx(context.Background(), 5) }

	cases := []struct {
		name   string
		plan   *CachedPlan
		q      Query
		ec     func() *ExecCtx
		tactic string
		err    error
	}{
		{"tscan", tscan, Query{Restriction: ageLT(30)}, free, "tscan", nil},
		{"tscan/sort", tscan, Query{Restriction: ageLT(30), OrderBy: []int{age}}, free, "sort(tscan)", nil},
		{"tscan/sort-desc-limit", tscan, Query{Restriction: ageLT(30), OrderBy: []int{age}, OrderDesc: true, Limit: 7}, free, "sort(tscan)", nil},
		{"sscan/desc", sscanAge, Query{Restriction: expr.NewAnd(ageGE(10), ageLT(20)), Projection: []int{age}, OrderBy: []int{age}, OrderDesc: true}, free, "sscan", nil},
		{"fscan/asc", fscanAge, Query{Restriction: ageGE(90), OrderBy: []int{age}}, free, "fscan", nil},
		{"fscan/desc", fscanAge, Query{Restriction: ageGE(90), OrderBy: []int{age}, OrderDesc: true}, free, "fscan", nil},
		{"fscan/sort", fscanID, Query{Restriction: expr.NewAnd(expr.NewCmp(expr.LT, expr.Col(id, "ID"), expr.Lit(expr.Int(400))), ageGE(50)), OrderBy: []int{age}}, free, "sort(fscan)", nil},
		// One empty-range behaviour for every plan, the static Tscan
		// included: end of data at once, zero I/O.
		{"tscan/empty", tscan, Query{Restriction: contradictory}, free, "empty-range", nil},
		{"sscan/empty", sscanAge, Query{Restriction: contradictory, Projection: []int{age}}, free, "empty-range", nil},
		{"fscan/empty", fscanAge, Query{Restriction: contradictory}, free, "empty-range", nil},
		{"tscan/cancelled", tscan, Query{Restriction: ageLT(30)}, cancelled, "error", context.Canceled},
		{"fscan/cancelled", fscanAge, Query{Restriction: ageGE(90)}, cancelled, "error", context.Canceled},
		{"tscan/budget", tscan, Query{Restriction: ageLT(30)}, budget, "tscan", ErrBudgetExceeded},
		{"fscan/budget", fscanAge, Query{Restriction: ageGE(50)}, budget, "fscan", ErrBudgetExceeded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.q
			q.Table = f.tab
			metrics, corrections := o.Metrics().Snapshot(), fb.Snapshot()

			f.pool.EvictAll()
			sRows, sSt, sErr := runOut(RunPlan(tc.ec(), &q, tc.plan, o.Config()))
			if !reflect.DeepEqual(o.Metrics().Snapshot(), metrics) {
				t.Fatal("static run changed the optimizer's metrics")
			}
			if !reflect.DeepEqual(fb.Snapshot(), corrections) {
				t.Fatal("static run fed the feedback registry")
			}
			if sSt.EstimateIO != 0 {
				t.Fatalf("static run spent %d estimation I/O", sSt.EstimateIO)
			}

			f.pool.EvictAll()
			fRows, fSt, fErr := runOut(o.RunFrozen(tc.ec(), &q, tc.plan))

			if !errors.Is(sErr, tc.err) || !errors.Is(fErr, tc.err) {
				t.Fatalf("errors: static %v, frozen %v, want %v", sErr, fErr, tc.err)
			}
			if !reflect.DeepEqual(sRows, fRows) {
				t.Fatalf("rows differ: static %d, frozen %d", len(sRows), len(fRows))
			}
			if sSt.IO != fSt.IO {
				t.Fatalf("attributed I/O differs: static %v, frozen %v", sSt.IO, fSt.IO)
			}
			if sSt.Tactic != tc.tactic || fSt.Tactic != tc.tactic {
				t.Fatalf("tactics: static %q, frozen %q, want %q", sSt.Tactic, fSt.Tactic, tc.tactic)
			}
			if tc.tactic == "empty-range" && (sSt.IO.IOCost() != 0 || len(sRows) != 0) {
				t.Fatalf("empty range cost %d I/O and %d rows", sSt.IO.IOCost(), len(sRows))
			}
			if tc.err == nil {
				want := f.naive(t, &q)
				if q.Limit == 0 {
					sameMultiset(t, sRows, want, tc.name)
				}
				if len(q.OrderBy) > 0 {
					for i := 1; i < len(sRows); i++ {
						c := expr.Compare(sRows[i-1][0], sRows[i][0])
						if len(q.Projection) == 0 {
							c = expr.Compare(sRows[i-1][age], sRows[i][age])
						}
						if (c > 0 && !q.OrderDesc) || (c < 0 && q.OrderDesc) {
							t.Fatalf("row %d out of order", i)
						}
					}
				}
			}
		})
	}
}
