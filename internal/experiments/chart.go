package experiments

import (
	"fmt"
	"strings"
)

// Chart renders a LatencyResult as an ASCII grouped bar chart, the
// terminal equivalent of the paper's Figure 5/6 bar plots. Bars start at
// 1.0 (Ideal) so the overhead each scheme adds is what gets drawn.
func (r LatencyResult) Chart() string {
	var b strings.Builder
	fmt.Fprintf(&b, "normalized latency overhead over Ideal (algorithm=%s)\n", r.Algorithm)
	maxOver := 0.01
	rows := append(append([]LatencyRow(nil), r.Rows...), r.GMean)
	for _, row := range rows {
		for _, v := range []float64{row.CC, row.CNC, row.DISCO} {
			if v-1 > maxOver {
				maxOver = v - 1
			}
		}
	}
	bar := func(v float64) string {
		n := int((v - 1) / maxOver * 44)
		if n < 0 {
			n = 0
		}
		return strings.Repeat("#", n)
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-14s CC    %5.3f |%s\n", row.Bench, row.CC, bar(row.CC))
		fmt.Fprintf(&b, "%-14s CNC   %5.3f |%s\n", "", row.CNC, bar(row.CNC))
		fmt.Fprintf(&b, "%-14s DISCO %5.3f |%s\n", "", row.DISCO, bar(row.DISCO))
	}
	return b.String()
}

// Chart renders the Fig. 8 scalability rows.
func (r ScaleResult) Chart() string {
	var b strings.Builder
	b.WriteString("DISCO gain over CC vs mesh size\n")
	for _, row := range r.Rows {
		n := int(row.GainPct * 2)
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%dx%d (%2d banks) %5.1f%% |%s\n", row.K, row.K, row.Banks,
			row.GainPct, strings.Repeat("#", n))
	}
	return b.String()
}
