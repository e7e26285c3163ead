package experiments

import (
	"fmt"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/simrun"
)

// CalibrationPoint is one (CCth, CDth) grid point's outcome.
type CalibrationPoint struct {
	CCth, CDth float64
	// Latency is the mean normalized latency (Ideal = 1.0) over the
	// option set's benchmarks.
	Latency float64
	// EngineOps is the total in-network de/compression count (diagnostic:
	// thresholds too high starve the engines, too low waste energy).
	EngineOps uint64
	// Releases counts shadow-packet releases (mis-predictions).
	Releases uint64
}

// CalibrationResult is a threshold-sweep outcome; Best is the point with
// the lowest latency.
type CalibrationResult struct {
	Points []CalibrationPoint
	Best   CalibrationPoint
}

// CalibrateThresholds reproduces the paper's empirical parameter training
// (end of Section 3.2: "we use the real workload traces ... to train the
// empirical parameters"): it sweeps the CCth × CDth grid with the delta
// compressor and reports normalized latency per point.
func CalibrateThresholds(o Opts, ccths, cdths []float64) (CalibrationResult, error) {
	if len(ccths) == 0 {
		ccths = []float64{0, 1, 2, 4}
	}
	if len(cdths) == 0 {
		cdths = []float64{-2, 0, 2}
	}
	profs, err := o.profiles()
	if err != nil {
		return CalibrationResult{}, err
	}
	rn := o.runner()
	// Row 0 is the Ideal baseline; then one row per grid point.
	futs := [][]*simrun.Future{nil}
	for _, p := range profs {
		futs[0] = append(futs[0], o.cell(rn, cmp.Ideal, "delta", p, nil))
	}
	var res CalibrationResult
	for _, cc := range ccths {
		for _, cd := range cdths {
			res.Points = append(res.Points, CalibrationPoint{CCth: cc, CDth: cd})
			var row []*simrun.Future
			for _, p := range profs {
				row = append(row, o.cell(rn, cmp.DISCO, "delta", p, withDisco(func(c *disco.Config) {
					c.CCth, c.CDth = cc, cd
				})))
			}
			futs = append(futs, row)
		}
	}
	rs, err := wait(futs)
	if err != nil {
		return CalibrationResult{}, err
	}
	for gi := range res.Points {
		pt := &res.Points[gi]
		pt.Latency = meanNormalized(rs[1+gi], rs[0])
		for _, r := range rs[1+gi] {
			pt.EngineOps += r.Net.Compressions + r.Net.Decompressions
			pt.Releases += r.Net.EngineReleases
		}
		if res.Best.Latency == 0 || pt.Latency < res.Best.Latency {
			res.Best = *pt
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r CalibrationResult) Table() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		mark := ""
		if p == r.Best {
			mark = "  <- best"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", p.CCth),
			fmt.Sprintf("%.1f", p.CDth),
			fmt.Sprintf("%.3f", p.Latency),
			fmt.Sprintf("%d", p.EngineOps),
			fmt.Sprintf("%d%s", p.Releases, mark),
		})
	}
	return "threshold calibration (delta; normalized latency, Ideal=1.0)\n" +
		table([]string{"CCth", "CDth", "latency", "engine ops", "releases"}, rows)
}
