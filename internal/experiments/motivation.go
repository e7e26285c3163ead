package experiments

import (
	"fmt"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/simrun"
)

// MotivationRow quantifies, per benchmark, the observations that motivate
// the DISCO design (Sections 1 and 3.3): how much of the NoC bandwidth
// response payloads occupy (the 3.3C selective-compression argument), how
// much queueing time packets accumulate (the overlap opportunity), and
// how much of DISCO's conversion work ends up hidden in-network versus
// paid residually at ejection.
type MotivationRow struct {
	Bench string
	// ResponseFlitShare is response flits over all flits moved (Section
	// 3.3C: "response packet ... occupies the majority of on-chip
	// bandwidth").
	ResponseFlitShare float64
	// AvgQueueing is the mean per-packet stall (cycles) — the idle time
	// DISCO harvests.
	AvgQueueing float64
	// InNetworkOps / ResidualOps split DISCO's conversions into hidden
	// (router engines) and paid (NI ejection).
	InNetworkOps uint64
	ResidualOps  uint64
	// HiddenShare = InNetworkOps / (InNetworkOps + ResidualOps).
	HiddenShare float64
}

// MotivationResult aggregates the study.
type MotivationResult struct{ Rows []MotivationRow }

// Motivation runs DISCO over the option set's benchmarks and extracts the
// motivational statistics.
func Motivation(o Opts) (MotivationResult, error) {
	profs, err := o.profiles()
	if err != nil {
		return MotivationResult{}, err
	}
	var res MotivationResult
	rn := o.runner()
	futs := make([]*simrun.Future, len(profs))
	for i, p := range profs {
		futs[i] = o.cell(rn, cmp.DISCO, "delta", p, nil)
	}
	rs, err := wait([][]*simrun.Future{futs})
	if err != nil {
		return res, err
	}
	for i, p := range profs {
		r := rs[0][i]
		inNet := r.Net.Compressions + r.Net.Decompressions
		row := MotivationRow{
			Bench: p.Name,
			ResponseFlitShare: float64(r.Net.FlitHopsByClass[noc.ClassResponse]) /
				float64(max(r.Net.FlitHops, 1)),
			AvgQueueing:  r.Net.QueueCycles.Mean(),
			InNetworkOps: inNet,
			ResidualOps:  r.ResidualOps,
		}
		if inNet+r.ResidualOps > 0 {
			row.HiddenShare = float64(inNet) / float64(inNet+r.ResidualOps)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the study.
func (r MotivationResult) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Bench,
			fmt.Sprintf("%.0f%%", row.ResponseFlitShare*100),
			fmt.Sprintf("%.1f", row.AvgQueueing),
			fmt.Sprintf("%d", row.InNetworkOps),
			fmt.Sprintf("%d", row.ResidualOps),
			fmt.Sprintf("%.1f%%", row.HiddenShare*100),
		})
	}
	return "DISCO motivation statistics (delta, 4x4)\n" +
		table([]string{"benchmark", "resp flit share", "queueing", "in-net ops", "residual", "hidden"}, rows)
}
