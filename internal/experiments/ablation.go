package experiments

import (
	"fmt"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/simrun"
)

// AblationRow is one DISCO policy variant's gmean normalized latency
// (Ideal = 1.0) over the option set's benchmarks.
type AblationRow struct {
	Variant    string
	Normalized float64
}

// AblationResult collects the design-choice study of DESIGN.md §5.
type AblationResult struct{ Rows []AblationRow }

// ablationVariants enumerates the mechanisms Sections 3.2–3.3 introduce.
func ablationVariants() []struct {
	name string
	mut  func(*disco.Config)
} {
	return []struct {
		name string
		mut  func(*disco.Config)
	}{
		{"full", func(*disco.Config) {}},
		{"blocking-engine", func(c *disco.Config) { c.NonBlocking = false }},
		{"no-separate-flit", func(c *disco.Config) { c.SeparateFlit = false }},
		{"no-low-priority", func(c *disco.Config) { c.LowPriorityRule = false }},
		{"compress-all-classes", func(c *disco.Config) { c.ResponseOnly = false }},
		{"always-confident", func(c *disco.Config) { c.CCth, c.CDth = -1e9, -1e9; c.Beta = 0 }},
		{"never-confident", func(c *disco.Config) { c.CCth, c.CDth = 1e9, 1e9 }},
		{"adaptive-thresholds", func(c *disco.Config) { c.Adaptive = true; c.AdaptiveGain = 1 }},
	}
}

// Ablation measures each DISCO variant against the Ideal baseline.
func Ablation(o Opts) (AblationResult, error) {
	profs, err := o.profiles()
	if err != nil {
		return AblationResult{}, err
	}
	r := o.runner()
	variants := ablationVariants()
	// Row 0 is the Ideal baseline; row 1+vi is variant vi.
	futs := make([][]*simrun.Future, 1+len(variants))
	for _, p := range profs {
		futs[0] = append(futs[0], o.cell(r, cmp.Ideal, "delta", p, nil))
	}
	for vi, v := range variants {
		for _, p := range profs {
			futs[1+vi] = append(futs[1+vi], o.cell(r, cmp.DISCO, "delta", p, withDisco(v.mut)))
		}
	}
	rs, err := wait(futs)
	if err != nil {
		return AblationResult{}, err
	}
	var res AblationResult
	for vi, v := range variants {
		res.Rows = append(res.Rows, AblationRow{Variant: v.name, Normalized: meanNormalized(rs[1+vi], rs[0])})
	}
	return res, nil
}

// withDisco returns a cell mutation that sets the DISCO policy to the
// defaults for the cell's algorithm, changed by mut.
func withDisco(mut func(*disco.Config)) func(*cmp.Config) {
	return func(c *cmp.Config) {
		dc := disco.DefaultConfig(c.Algorithm)
		mut(&dc)
		c.Disco = &dc
	}
}

// meanNormalized is the mean over benchmarks of rs's miss latency
// normalized to ideal's.
func meanNormalized(rs, ideal []cmp.Results) float64 {
	sum := 0.0
	for i, r := range rs {
		sum += r.AvgMissLatency / ideal[i].AvgMissLatency
	}
	return sum / float64(len(rs))
}

// Table renders the ablation study.
func (r AblationResult) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Variant, fmt.Sprintf("%.3f", row.Normalized)})
	}
	return "DISCO policy ablation: mean normalized latency (Ideal=1.0, delta)\n" +
		table([]string{"variant", "latency"}, rows)
}
