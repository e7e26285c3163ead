package experiments

import (
	"fmt"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/simrun"
)

// SensitivityRow is one NoC design point's outcome: CC and DISCO
// normalized latency (Ideal = 1.0) over the option set's benchmarks. The
// paper remarks (end of Section 3.2) that the best thresholds "depend on
// the NoC congestion condition and the configuration of NoC as well, i.e.
// the stage number, VC depth and flow-control method" — this study sweeps
// those axes.
type SensitivityRow struct {
	Label       string
	VCs         int
	BufDepth    int
	FlowControl string
	CC          float64
	DISCO       float64
	GainPct     float64
}

// SensitivityResult collects the sweep.
type SensitivityResult struct{ Rows []SensitivityRow }

// sensitivityPoints enumerates the swept design points.
func sensitivityPoints() []struct {
	label    string
	vcs, buf int
	fc       noc.FlowControl
} {
	return []struct {
		label    string
		vcs, buf int
		fc       noc.FlowControl
	}{
		{"wormhole 2vc x 4", 2, 4, noc.Wormhole},
		{"wormhole 2vc x 8 (Table 2)", 2, 8, noc.Wormhole},
		{"wormhole 2vc x 16", 2, 16, noc.Wormhole},
		{"wormhole 4vc x 8", 4, 8, noc.Wormhole},
		{"vct 2vc x 12", 2, 12, noc.VirtualCutThrough},
		{"saf 2vc x 12", 2, 12, noc.StoreAndForward},
	}
}

// Sensitivity sweeps VC count, buffer depth and flow control, measuring
// CC vs DISCO (delta compression) at each point.
func Sensitivity(o Opts) (SensitivityResult, error) {
	profs, err := o.profiles()
	if err != nil {
		return SensitivityResult{}, err
	}
	r := o.runner()
	points := sensitivityPoints()
	modes := []cmp.Mode{cmp.Ideal, cmp.CC, cmp.DISCO}
	futs := make([][][]*simrun.Future, len(points))
	for pi, pt := range points {
		point := func(c *cmp.Config) { c.VCs, c.BufDepth, c.FlowControl = pt.vcs, pt.buf, pt.fc }
		futs[pi] = make([][]*simrun.Future, len(profs))
		for i, p := range profs {
			for _, m := range modes {
				futs[pi][i] = append(futs[pi][i], o.cell(r, m, "delta", p, point))
			}
		}
	}
	var res SensitivityResult
	for pi, pt := range points {
		rs, err := wait(futs[pi])
		if err != nil {
			return res, err
		}
		sumCC, sumD := 0.0, 0.0
		for _, c := range rs {
			ideal, cc, d := c[0], c[1], c[2]
			sumCC += cc.AvgMissLatency / ideal.AvgMissLatency
			sumD += d.AvgMissLatency / ideal.AvgMissLatency
		}
		n := float64(len(profs))
		row := SensitivityRow{
			Label: pt.label, VCs: pt.vcs, BufDepth: pt.buf,
			FlowControl: pt.fc.String(),
			CC:          sumCC / n, DISCO: sumD / n,
		}
		row.GainPct = (row.CC - row.DISCO) / row.CC * 100
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the sweep.
func (r SensitivityResult) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label,
			fmt.Sprintf("%.3f", row.CC),
			fmt.Sprintf("%.3f", row.DISCO),
			fmt.Sprintf("%.1f%%", row.GainPct),
		})
	}
	return "NoC sensitivity: CC vs DISCO normalized latency (delta)\n" +
		table([]string{"design point", "CC", "DISCO", "DISCO gain"}, rows)
}
