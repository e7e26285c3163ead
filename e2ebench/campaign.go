package main

import (
	"fmt"
	"os"
	"time"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/experiments"
	"github.com/disco-sim/disco/internal/simrun"
	"github.com/disco-sim/disco/internal/trace"
)

// campaignWorkload regenerates the paper's tables and figures the way
// `discosim -exp all` does: Table 1, Figs. 5-8 and the ablation in
// RunAll's order on one shared two-worker runner, so common baseline
// cells are simulated once. It is the only workload that covers all five
// modes, three mesh sizes and four codecs, and where cell scheduling and
// straggler cells matter.
type campaignWorkload struct {
	opts  experiments.Opts
	check *digestCheck

	// Totals over traced reps.
	reps                      int
	expNS                     []int64
	executed, submitted, hits uint64
}

// campaignWorkers is the runner's worker count: one per CPU.
const campaignWorkers = 2

func newCampaignWorkload(pr params) (*campaignWorkload, error) {
	// Cells of the size `discosim -exp all -quick` runs, on two of the
	// benchmarks: a rep is one campaign.
	o := experiments.Quick()
	o.Seed, o.Benchmarks = pr.seed, []string{"canneal", "swaptions"}
	if pr.tiny {
		o.Ops, o.Warmup, o.Benchmarks = 4, 2, o.Benchmarks[:1]
	}
	check, err := newDigestCheck("campaign", pr)
	if err != nil {
		return nil, err
	}
	return &campaignWorkload{opts: o, check: check, expNS: make([]int64, len(experimentNames))}, nil
}

// setup builds the platforms the campaign simulates: the DISCO system of
// its first benchmark at each of Fig. 8's mesh sizes.
func (w *campaignWorkload) setup() error {
	prof, ok := trace.ByName(w.opts.Benchmarks[0])
	if !ok {
		return fmt.Errorf("unknown benchmark profile %q", w.opts.Benchmarks[0])
	}
	for _, k := range []int{2, 4, 8} {
		cfg := cmp.DefaultConfig(cmp.DISCO, compress.NewDelta(), prof)
		cfg.K, cfg.OpsPerCore, cfg.WarmupOps, cfg.Seed = k, w.opts.Ops, w.opts.Warmup, w.opts.Seed
		sys, err := cmp.New(cfg)
		if err != nil {
			return err
		}
		sys.Close()
	}
	return nil
}

func (w *campaignWorkload) warm() error {
	o := w.opts
	o.Ops, o.Warmup = max(o.Ops/20, 1), o.Warmup/20
	_, _, err := runCampaign(o, nil, -1, nil)
	return err
}

// runCampaign runs every experiment on o's runner, recording a span per
// experiment under root and adding each one's wall time to expNS.
func runCampaign(o experiments.Opts, tr *tracer, root int, expNS []int64) (*experiments.Report, *simrun.Runner, error) {
	o.Runner = simrun.New(campaignWorkers, true)
	rep := &experiments.Report{Opts: o}
	steps := []func() error{
		func() error { r, err := experiments.Table1(o); rep.Table1 = &r; return err },
		func() error { r, err := experiments.Fig5(o); rep.Fig5 = &r; return err },
		func() error { r, err := experiments.Fig6(o); rep.Fig6 = r; return err },
		func() error { r, err := experiments.Fig7(o); rep.Fig7 = &r; return err },
		func() error { r, err := experiments.Fig8(o); rep.Fig8 = &r; return err },
		func() error { r, err := experiments.Ablation(o); rep.Ablation = &r; return err },
	}
	for i, step := range steps {
		t0 := time.Now()
		sp := tr.begin("exp."+experimentNames[i], 0, root)
		err := step()
		tr.end(sp)
		if expNS != nil {
			expNS[i] += int64(time.Since(t0))
		}
		if err != nil {
			return nil, o.Runner, fmt.Errorf("%s: %w", experimentNames[i], err)
		}
	}
	return rep, o.Runner, nil
}

func (w *campaignWorkload) rep(tr *tracer) (repStats, error) {
	st := repStats{attempted: 1}
	tr.track(0, "campaign")
	root := tr.group("rep", 0, -1)
	defer tr.end(root)
	var expNS []int64
	if tr != nil {
		expNS = w.expNS
	}
	t0 := time.Now()
	rep, runner, err := runCampaign(w.opts, tr, root, expNS)
	if err == nil {
		sp := tr.begin("report.json", 0, root)
		var data []byte
		data, err = rep.JSON()
		tr.end(sp)
		if err == nil && !w.check.check("report", data) {
			st.failed++
		}
	}
	st.latency.add(time.Since(t0))
	cells := runner.Stats()
	st.units = float64(cells.Executed)
	if err != nil {
		st.failed = 1
		fmt.Fprintf(os.Stderr, "e2ebench: campaign: %v\n", err)
	}
	if tr != nil {
		w.reps++
		w.executed += cells.Executed
		w.submitted += cells.Submitted
		w.hits += cells.Hits
	}
	return st, nil
}

func (w *campaignWorkload) layers() (map[string]float64, repStats, error) {
	reps := float64(w.reps)
	m := map[string]float64{
		"simrun.cells_executed": float64(w.executed) / reps,
		"simrun.memo_hit_ratio": float64(w.hits) / float64(w.submitted),
	}
	for i, e := range experimentNames {
		m["exp."+e+"_s"] = float64(w.expNS[i]) / reps / 1e9
	}
	return m, repStats{}, nil
}

func (w *campaignWorkload) digests() []string { return w.check.digests() }

func (w *campaignWorkload) close() error { return nil }
