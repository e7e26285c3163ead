package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/obs"
	"github.com/disco-sim/disco/internal/trace"
)

// cellSpec is one full-system simulation of a workload: DISCO mode with
// the delta codec on the Table 2 platform at mesh radix k.
type cellSpec struct {
	bench       string
	k           int
	ops, warmup int
}

func (c cellSpec) key() string { return fmt.Sprintf("%s/%dx%d", c.bench, c.k, c.k) }

// latencyCycles is a simulation's operation: the host time to advance it
// this many cycles is one latency sample (through System.SetProbe, which
// only reads), so a run yields thousands of samples rather than a handful
// of whole simulations.
const latencyCycles = 1000

// simWorkload runs its cells one after another through cmp.New and
// System.Run, as `discosim -run` does.
type simWorkload struct {
	name  string
	seed  int64
	cells []cellSpec
	check *digestCheck

	// Totals over traced reps.
	reps            int
	newNS, runNS    int64
	phaseNS         [obs.NumPhases]int64
	cycles, packets uint64
	misses          uint64
	engine, exposed uint64
}

func newSimWorkload(name string, pr params) (*simWorkload, error) {
	var cells []cellSpec
	if name == "sim-loaded" {
		// Footprints of 6144/8192 blocks overflow the 512-block L1: misses,
		// packets and delayed events dominate.
		cells = []cellSpec{{"canneal", 4, 12000, 6000}, {"streamcluster", 4, 12000, 6000}, {"canneal", 8, 3000, 1500}}
	} else {
		// Footprints of 512/768 blocks fit in L1: misses are rare and the
		// per-cycle fixed cost of cores, L1s and idle routers dominates.
		cells = []cellSpec{{"swaptions", 4, 60000, 6000}, {"blackscholes", 4, 60000, 6000}}
	}
	if pr.tiny {
		for i := range cells {
			cells[i].ops, cells[i].warmup = cells[i].ops/1000, cells[i].warmup/1000
		}
	}
	check, err := newDigestCheck(name, pr)
	if err != nil {
		return nil, err
	}
	return &simWorkload{name: name, seed: pr.seed, cells: cells, check: check}, nil
}

// config is cell c's platform; workers > 1 shards the NoC's compute.
func (w *simWorkload) config(c cellSpec, workers int) (cmp.Config, error) {
	prof, ok := trace.ByName(c.bench)
	if !ok {
		return cmp.Config{}, fmt.Errorf("unknown benchmark profile %q", c.bench)
	}
	alg, err := compress.New("delta")
	if err != nil {
		return cmp.Config{}, err
	}
	cfg := cmp.DefaultConfig(cmp.DISCO, alg, prof)
	cfg.K, cfg.OpsPerCore, cfg.WarmupOps, cfg.Seed, cfg.SimWorkers = c.k, c.ops, c.warmup, w.seed, workers
	return cfg, nil
}

// setup builds every cell's system, the state a rep starts each
// simulation from.
func (w *simWorkload) setup() error {
	for _, c := range w.cells {
		cfg, err := w.config(c, 0)
		if err != nil {
			return err
		}
		sys, err := cmp.New(cfg)
		if err != nil {
			return err
		}
		sys.Close()
	}
	return nil
}

func (w *simWorkload) warm() error {
	for _, c := range w.cells {
		c.ops, c.warmup = c.ops/20+1, c.warmup/20
		if _, _, err := w.simulate(c, 0); err != nil {
			return err
		}
	}
	return nil
}

// simulate builds and runs one cell untraced, returning its Results and
// the Run wall time.
func (w *simWorkload) simulate(c cellSpec, workers int) (cmp.Results, time.Duration, error) {
	cfg, err := w.config(c, workers)
	if err != nil {
		return cmp.Results{}, 0, err
	}
	sys, err := cmp.New(cfg)
	if err != nil {
		return cmp.Results{}, 0, err
	}
	defer sys.Close()
	t0 := time.Now()
	res, err := sys.Run()
	return res, time.Since(t0), err
}

func (w *simWorkload) rep(tr *tracer) (repStats, error) {
	var st repStats
	tr.track(0, w.name)
	root := tr.group("rep", 0, -1)
	defer tr.end(root)
	for _, c := range w.cells {
		cfg, err := w.config(c, 0)
		if err != nil {
			return st, err
		}
		st.attempted++
		t0 := time.Now()
		sp := tr.begin("cmp.New", 0, root)
		sys, err := cmp.New(cfg)
		tr.end(sp)
		if err != nil {
			return st, err
		}
		var prof *obs.PhaseProfiler
		if tr != nil {
			prof = obs.NewPhaseProfiler(1)
			sys.AttachProfiler(prof)
		}
		t1 := time.Now()
		last := t1
		sys.SetProbe(latencyCycles, func() {
			now := time.Now()
			st.latency.add(now.Sub(last))
			last = now
		})
		run := tr.begin("System.Run", 0, root)
		res, err := sys.Run()
		tr.end(run)
		t2 := time.Now()
		sys.Close()
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", c.key(), err)
			continue
		}
		st.units += float64(res.Cycles)
		if ok, err := w.checkResults(c.key(), res); err != nil {
			return st, err
		} else if !ok {
			st.failed++
		}
		if tr != nil {
			w.account(tr, run, t1, prof, res)
			w.newNS += int64(t1.Sub(t0))
			w.runNS += int64(t2.Sub(t1))
		}
	}
	if tr != nil {
		w.reps++
	}
	return st, nil
}

// checkResults digests a simulation's Results JSON.
func (w *simWorkload) checkResults(key string, res cmp.Results) (bool, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	return w.check.check(key, data), nil
}

// account folds a traced simulation into the totals and lays the NoC
// profiler's phase totals out as aggregate children of its Run span.
func (w *simWorkload) account(tr *tracer, run int, start time.Time, prof *obs.PhaseProfiler, res cmp.Results) {
	at := start
	for _, ph := range obs.Phases() {
		ns := prof.TotalNS(ph)
		if ns == 0 {
			continue
		}
		w.phaseNS[ph] += ns
		tr.aggregate("noc."+ph.String(), run, at, time.Duration(ns), int64(prof.Steps()))
		at = at.Add(time.Duration(ns))
	}
	w.cycles += res.Cycles
	w.packets += res.Net.Ejected
	w.misses += res.L1Misses
	w.engine += res.Net.PktEngineCycles
	w.exposed += res.Net.PktEngineExposed
}

func (w *simWorkload) layers() (map[string]float64, repStats, error) {
	var step int64
	for _, ns := range w.phaseNS {
		step += ns
	}
	reps := float64(w.reps)
	perRep := func(ns int64) float64 { return float64(ns) / reps / 1e9 }
	m := map[string]float64{
		"noc.step_s":   perRep(step),
		"noc.engine_s": perRep(w.phaseNS[obs.PhaseEngine]),
		"noc.sa_s":     perRep(w.phaseNS[obs.PhaseSA]),
		"noc.alloc_s":  perRep(w.phaseNS[obs.PhaseAlloc]),
		"noc.commit_s": perRep(w.phaseNS[obs.PhaseCommit]),
		// The serial engine has no barrier; a sharded one's waits count
		// as other.
		"noc.other_s":              perRep(w.phaseNS[obs.PhaseOther] + w.phaseNS[obs.PhaseBarrier]),
		"noc.ns_per_packet":        float64(step) / float64(w.packets),
		"cmp.new_s":                perRep(w.newNS),
		"cmp.tick_s":               perRep(w.runNS - step),
		"cmp.ns_per_miss":          float64(w.runNS-step) / float64(w.misses),
		"sim.packets_per_kcycle":   float64(w.packets) / float64(w.cycles) * 1e3,
		"sim.l1_misses_per_kcycle": float64(w.misses) / float64(w.cycles) * 1e3,
		"disco.overlap_ratio":      float64(w.engine-w.exposed) / float64(w.engine),
	}
	var st repStats
	if w.name == "sim-loaded" {
		speedup, ok, err := w.mesh8Speedup()
		if err != nil {
			return nil, st, err
		}
		st.attempted++
		if !ok {
			st.failed++
		}
		m["noc.mesh8_w2_speedup"] = speedup
	}
	return m, st, nil
}

// mesh8Speedup re-runs the 8×8 cell serially and with the NoC's compute
// sharded over two workers, returning serial over sharded Run time and
// whether both produced the checked Results.
func (w *simWorkload) mesh8Speedup() (float64, bool, error) {
	c := w.cells[len(w.cells)-1]
	serial, ts, err := w.simulate(c, 0)
	if err != nil {
		return 0, false, err
	}
	sharded, tp, err := w.simulate(c, 2)
	if err != nil {
		return 0, false, err
	}
	ok1, err := w.checkResults(c.key(), serial)
	if err != nil {
		return 0, false, err
	}
	ok2, err := w.checkResults(c.key(), sharded)
	if err != nil {
		return 0, false, err
	}
	return ts.Seconds() / tp.Seconds(), ok1 && ok2, nil
}

func (w *simWorkload) digests() []string { return w.check.digests() }

func (w *simWorkload) close() error { return nil }
