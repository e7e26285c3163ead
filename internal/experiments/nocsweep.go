package experiments

import (
	"fmt"
	"strings"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/noc"
)

// NocCurve is one open-loop latency-vs-offered-load curve of the NoC
// alone: synthetic traffic on the Table 2 mesh, without or with delta
// DISCO in the routers.
type NocCurve struct {
	Pattern string
	Disco   bool
	Points  []noc.SweepPoint
}

// NocSweepResult holds the uniform and hotspot curves, each without and
// with DISCO.
type NocSweepResult struct{ Curves []NocCurve }

// NocSweep measures the open-loop latency-vs-load curves that test the
// Fig. 8 congestion argument, that compression pays where bandwidth is
// scarce. Only the seed comes from o; the mesh, load shape and rates are
// noc.DefaultSweep's (hotspot traffic sinks at node 0). Each point is an
// independent deterministic simulation, so the four curves run in a
// couple of seconds without the cell scheduler; the study is an analysis
// aid and not part of the JSON report.
func NocSweep(o Opts) (NocSweepResult, error) {
	var res NocSweepResult
	for _, pat := range []struct {
		name string
		p    noc.Pattern
	}{{"uniform", noc.Uniform}, {"hotspot", noc.Hotspot}} {
		for _, withDisco := range []bool{false, true} {
			cfg := noc.DefaultSweep()
			cfg.Traffic.Pattern = pat.p
			cfg.Traffic.Seed = o.Seed
			if withDisco {
				dc := disco.DefaultConfig(compress.NewDelta())
				cfg.Net.Disco = &dc
			}
			pts, err := noc.Sweep(cfg)
			if err != nil {
				return res, err
			}
			res.Curves = append(res.Curves, NocCurve{Pattern: pat.name, Disco: withDisco, Points: pts})
		}
	}
	return res, nil
}

// Table renders every curve with noc.FormatSweep.
func (r NocSweepResult) Table() string {
	var b strings.Builder
	for i, c := range r.Curves {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "latency vs offered load, 4x4 mesh, pattern=%s, disco=%v\n", c.Pattern, c.Disco)
		b.WriteString(noc.FormatSweep(c.Points))
	}
	return b.String()
}
