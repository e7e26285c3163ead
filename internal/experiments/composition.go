package experiments

import (
	"fmt"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/energy"
	"github.com/disco-sim/disco/internal/simrun"
)

// CompositionRow is one mode's absolute on-chip energy split for a single
// benchmark — the "where does the energy go" companion to Fig. 7, useful
// for judging which components a result is sensitive to.
type CompositionRow struct {
	Mode      string
	Breakdown energy.Breakdown
	// Shares of the on-chip total (router+link / cache / compressor /
	// leakage).
	NoCShare  float64
	CacheShr  float64
	CompShare float64
	LeakShare float64
}

// CompositionResult is the per-mode energy composition of one benchmark.
type CompositionResult struct {
	Bench string
	Rows  []CompositionRow
}

// Composition measures the energy split of every mode on one benchmark
// (the first of the option set).
func Composition(o Opts) (CompositionResult, error) {
	profs, err := o.profiles()
	if err != nil {
		return CompositionResult{}, err
	}
	p := profs[0]
	res := CompositionResult{Bench: p.Name}
	rn := o.runner()
	modes := []cmp.Mode{cmp.Baseline, cmp.Ideal, cmp.CC, cmp.CNC, cmp.DISCO}
	futs := make([]*simrun.Future, 0, len(modes))
	for _, mode := range modes {
		futs = append(futs, o.cell(rn, mode, "delta", p, nil))
	}
	rs, err := wait([][]*simrun.Future{futs})
	if err != nil {
		return res, err
	}
	for mi, mode := range modes {
		r := rs[0][mi]
		b := r.Energy
		total := b.OnChip()
		row := CompositionRow{Mode: mode.String(), Breakdown: b}
		if total > 0 {
			row.NoCShare = (b.RouterDyn + b.LinkDyn) / total
			row.CacheShr = b.CacheDyn / total
			row.CompShare = b.CompDyn / total
			row.LeakShare = b.Leakage / total
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the composition.
func (r CompositionResult) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mode,
			fmt.Sprintf("%.1f uJ", row.Breakdown.OnChip()/1e6),
			fmt.Sprintf("%.0f%%", row.NoCShare*100),
			fmt.Sprintf("%.0f%%", row.CacheShr*100),
			fmt.Sprintf("%.1f%%", row.CompShare*100),
			fmt.Sprintf("%.0f%%", row.LeakShare*100),
		})
	}
	return fmt.Sprintf("on-chip energy composition, %s (delta)\n", r.Bench) +
		table([]string{"mode", "total", "NoC", "cache", "compressor", "leakage"}, rows)
}
