package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/disco-sim/disco/internal/simrun"
)

// Report bundles every experiment's structured results for machine
// consumption (JSON), so downstream tooling can plot or diff runs.
type Report struct {
	Opts     Opts                     `json:"opts"`
	Table1   *Table1Result            `json:"table1,omitempty"`
	Fig5     *LatencyResult           `json:"fig5,omitempty"`
	Fig6     map[string]LatencyResult `json:"fig6,omitempty"`
	Fig7     *EnergyResult            `json:"fig7,omitempty"`
	Fig8     *ScaleResult             `json:"fig8,omitempty"`
	Ablation *AblationResult          `json:"ablation,omitempty"`
}

// Experiment is one entry of the experiment table.
type Experiment struct {
	// Name selects the experiment (discosim -exp NAME).
	Name string
	// All marks the paper's evaluation: the entries "all" selects, whose
	// results the Report carries. The others are analysis aids.
	All bool
	// Run runs the experiment on o, stores its result in rep when the
	// Report has a field for it, and returns its text.
	Run func(o Opts, rep *Report) (string, error)
}

// Experiments is the experiment table, in the order "all" runs and
// prints them.
var Experiments = []Experiment{
	{"table1", true, func(o Opts, rep *Report) (string, error) {
		r, err := Table1(o)
		if err != nil {
			return "", err
		}
		rep.Table1 = &r
		return fmt.Sprintf("== Table 1: compression scheme parameters ==\n%s\nmeasured ratio per benchmark:\n%s\n",
			r.Table(), r.BenchTable()), nil
	}},
	{"fig5", true, func(o Opts, rep *Report) (string, error) {
		r, err := Fig5(o)
		if err != nil {
			return "", err
		}
		rep.Fig5 = &r
		return fmt.Sprintf("== Figure 5: latency, delta compression ==\n%s\n%s\n%s", r.Table(), r.Chart(), gains(r)), nil
	}},
	{"fig6", true, func(o Opts, rep *Report) (string, error) {
		rs, err := Fig6(o)
		if err != nil {
			return "", err
		}
		rep.Fig6 = rs
		var b strings.Builder
		for _, a := range []string{"fpc", "sc2"} {
			fmt.Fprintf(&b, "== Figure 6: latency, %s ==\n%s\n%s", a, rs[a].Table(), gains(rs[a]))
		}
		return b.String(), nil
	}},
	{"fig7", true, tabled("Figure 7: energy", Fig7, func(rep *Report, r EnergyResult) { rep.Fig7 = &r })},
	{"fig8", true, func(o Opts, rep *Report) (string, error) {
		r, err := Fig8(o)
		if err != nil {
			return "", err
		}
		rep.Fig8 = &r
		return fmt.Sprintf("== Figure 8: scalability ==\n%s\n%s\n", r.Table(), r.Chart()), nil
	}},
	{"area", true, func(Opts, *Report) (string, error) {
		return fmt.Sprintf("== Section 4.3: area overhead ==\n%s\n", AreaTable()), nil
	}},
	{"ablation", true, tabled("DISCO policy ablation", Ablation, func(rep *Report, r AblationResult) { rep.Ablation = &r })},
	{"calibrate", false, tabled("threshold calibration (Section 3.2 training)", func(o Opts) (CalibrationResult, error) {
		return CalibrateThresholds(o, nil, nil)
	}, nil)},
	{"motivation", false, tabled("DISCO motivation statistics", Motivation, nil)},
	{"sensitivity", false, tabled("NoC sensitivity (VC depth / flow control)", Sensitivity, nil)},
	{"composition", false, tabled("on-chip energy composition", Composition, nil)},
	{"nocsweep", false, tabled("NoC-only open-loop sweep (delta DISCO)", NocSweep, nil)},
}

// tabled is the Run of an experiment whose text is a header and its
// Table; keep stores the result in the Report (nil when it has no field).
func tabled[R interface{ Table() string }](header string, run func(Opts) (R, error), keep func(*Report, R)) func(Opts, *Report) (string, error) {
	return func(o Opts, rep *Report) (string, error) {
		r, err := run(o)
		if err != nil {
			return "", err
		}
		if keep != nil {
			keep(rep, r)
		}
		return fmt.Sprintf("== %s ==\n%s\n", header, r.Table()), nil
	}
}

// gains is a latency figure's DISCO gains line.
func gains(r LatencyResult) string {
	return fmt.Sprintf("DISCO gain: %.1f%% over CC, %.1f%% over CNC\n\n", r.DiscoGainOverCC(), r.DiscoGainOverCNC())
}

// Names lists the valid selectors: every table entry, then "all".
func Names() []string {
	names := make([]string, 0, len(Experiments)+1)
	for _, e := range Experiments {
		names = append(names, e.Name)
	}
	return append(names, "all")
}

// Select returns the entries sel names: one experiment, or with "all"
// every entry marked All, in table order.
func Select(sel string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range Experiments {
		if e.Name == sel || (sel == "all" && e.All) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (have %s)", sel, strings.Join(Names(), ","))
	}
	return out, nil
}

// Run runs exps in order, writing each one's text to w as it finishes,
// and returns the report they fill. All of them share one runner, so
// their common baseline cells (e.g. the Ideal/CC/CNC delta runs of
// Fig. 5, Fig. 7 and the ablation) simulate exactly once.
func Run(exps []Experiment, o Opts, w io.Writer) (*Report, error) {
	if o.Runner == nil {
		o.Runner = simrun.New(0, true)
	}
	rep := &Report{Opts: o}
	for _, e := range exps {
		text, err := e.Run(o, rep)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		if _, err := io.WriteString(w, text); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// RunAll executes the paper's evaluation (every entry marked All) and
// collects the structured results.
func RunAll(o Opts) (*Report, error) {
	exps, err := Select("all")
	if err != nil {
		return nil, err
	}
	return Run(exps, o, io.Discard)
}

// JSON serializes the report (stable field order, indented).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
