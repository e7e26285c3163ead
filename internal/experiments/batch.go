package experiments

import (
	"encoding/csv"
	"fmt"
	"io"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/simrun"
)

// BatchCSV runs every (benchmark × mode) combination with the given
// algorithm and streams one CSV row per run — the raw-data companion to
// the figure harnesses, for external plotting or spreadsheet analysis.
func BatchCSV(o Opts, alg string, w io.Writer) error {
	profs, err := o.profiles()
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := []string{
		"benchmark", "mode", "algorithm",
		"onchip_latency", "total_latency", "cycles",
		"l1_misses", "l2_misses", "dram_accesses",
		"flit_hops", "in_network_ops", "residual_ops",
		"onchip_energy_pj", "total_energy_pj",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	modes := []cmp.Mode{cmp.Baseline, cmp.Ideal, cmp.CC, cmp.CNC, cmp.DISCO}
	rn := o.runner()
	futs := make([][]*simrun.Future, len(profs))
	for i, p := range profs {
		for _, mode := range modes {
			futs[i] = append(futs[i], o.cell(rn, mode, alg, p, nil))
		}
	}
	rs, err := wait(futs)
	if err != nil {
		return err
	}
	for _, runs := range rs {
		for _, r := range runs {
			row := []string{
				r.Benchmark, r.Mode.String(), r.Algorithm,
				fmt.Sprintf("%.2f", r.AvgMissLatency),
				fmt.Sprintf("%.2f", r.AvgMissTotal),
				fmt.Sprintf("%d", r.Cycles),
				fmt.Sprintf("%d", r.L1Misses),
				fmt.Sprintf("%d", r.L2Misses),
				fmt.Sprintf("%d", r.DramAccesses),
				fmt.Sprintf("%d", r.Net.FlitHops),
				fmt.Sprintf("%d", r.Net.Compressions+r.Net.Decompressions),
				fmt.Sprintf("%d", r.ResidualOps),
				fmt.Sprintf("%.0f", r.Energy.OnChip()),
				fmt.Sprintf("%.0f", r.Energy.Total()),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
