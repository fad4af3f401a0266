package exp

import (
	"context"
	"errors"
	"slices"
	"testing"

	"desc/internal/metrics"
	"desc/internal/stats"
	"desc/internal/workload"
)

// TestRecordedPlans pins the registration contract of derived demand
// plans, recording every experiment's Run at quick scale and every
// planning experiment's Run at full scale: an experiment has Demands
// exactly when its Run asks RunOne for at least one run; Demands returns
// that recording, non-empty and with each run once; and recording
// claims, caches, simulates and observes nothing.
func TestRecordedPlans(t *testing.T) {
	for _, opt := range []Options{{Quick: true}, {}} {
		for _, e := range All() {
			// Recording a non-simulating experiment does its real
			// work (fig12 and fig13 sample generated blocks); quick
			// scale is enough to show it asks for no runs.
			if !opt.Quick && e.Demands == nil {
				continue
			}
			reg := metrics.NewRegistry()
			obs := newCountingObserver()
			r := mustRunner(opt, WithMetrics(reg), WithObserver(obs))
			stores := 0
			r.onBlocks = func(*workload.Blocks) { stores++ }
			var recorded []Demand
			r.plan = &recorded
			if _, err := e.Run(context.Background(), r); err != nil {
				t.Errorf("%s (quick=%v): Run fails on placeholder results, so its plan is cut short: %v",
					e.ID, opt.Quick, err)
			}
			if (e.Demands != nil) != (len(recorded) > 0) {
				t.Errorf("%s (quick=%v): Demands set = %v, but Run asks for %d runs",
					e.ID, opt.Quick, e.Demands != nil, len(recorded))
			}
			if e.Demands != nil {
				plan := e.Demands(opt)
				if !slices.Equal(plan, recorded) {
					t.Errorf("%s (quick=%v): Demands returns %d runs, Run asks for %d",
						e.ID, opt.Quick, len(plan), len(recorded))
				}
				seen := map[Demand]bool{}
				for _, d := range plan {
					if seen[d] {
						t.Errorf("%s (quick=%v): plan holds %v/%s twice", e.ID, opt.Quick, d.Spec, d.Bench)
					}
					seen[d] = true
				}
			}
			if n := snapshotCounter(reg.Snapshot(), "exp/runs_started"); n != 0 || obs.totalStarted() != 0 {
				t.Errorf("%s (quick=%v): recording started %d simulations", e.ID, opt.Quick, n)
			}
			if stores != 0 {
				t.Errorf("%s (quick=%v): recording built %d block stores", e.ID, opt.Quick, stores)
			}
			if len(r.calls) != 0 {
				t.Errorf("%s (quick=%v): recording left %d run-cache entries", e.ID, opt.Quick, len(r.calls))
			}
		}
	}
}

// TestRecordRunsKeepsPartialPlan: recordRuns keeps each run once, in the
// order Run first asks for it, and keeps what it recorded when Run fails
// part way.
func TestRecordRunsKeepsPartialPlan(t *testing.T) {
	art, _ := workload.ByName("Art")
	cg, _ := workload.ByName("CG")
	run := func(ctx context.Context, r *Runner) ([]*stats.Table, error) {
		for _, p := range []workload.Profile{cg, art, cg} {
			if _, err := r.RunOne(ctx, BinaryBase(), p); err != nil {
				return nil, err
			}
		}
		return nil, errors.New("exp: render failed")
	}
	got := recordRuns(mustRunner(tiny()), run)
	want := []Demand{{Spec: BinaryBase(), Bench: "CG"}, {Spec: BinaryBase(), Bench: "Art"}}
	if !slices.Equal(got, want) {
		t.Fatalf("recorded %v, want %v", got, want)
	}
}
