// Package experiments regenerates every table and figure of the DISCO
// paper's evaluation (Section 4) on the Go reproduction platform:
//
//	Table 1 — compression-scheme parameters (latencies, measured ratios)
//	Fig. 5  — on-chip data access latency, delta compression, 4×4 CMP
//	Fig. 6  — the same with FPC and SC²
//	Fig. 7  — memory-subsystem energy, normalized to the no-compression
//	          baseline
//	Fig. 8  — scalability: 2×2 / 4×4 / 8×8 meshes
//	§4.3    — area overhead table
//
// Each experiment returns structured rows (for tests and benches) and a
// formatted table (for the CLI). Runs are deterministic for a fixed seed.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/energy"
	"github.com/disco-sim/disco/internal/simrun"
	"github.com/disco-sim/disco/internal/stats"
	"github.com/disco-sim/disco/internal/trace"
)

// Opts bound an experiment's cost.
type Opts struct {
	// Ops / Warmup are per-core measured / warmup memory operations.
	Ops, Warmup int
	// Benchmarks selects profiles (nil = all 12).
	Benchmarks []string
	// Seed drives the deterministic workloads.
	Seed int64
	// Runner optionally supplies a shared parallel scheduler and memo
	// cache (see internal/simrun); sharing one across experiments
	// dedupes their common baseline cells. Nil gives each experiment a
	// private runner at default parallelism. Results are reduced in
	// submission order, so every artifact is byte-identical whatever
	// the worker count or cache setting.
	Runner *simrun.Runner `json:"-"`
}

// Default returns the full-fidelity settings used for EXPERIMENTS.md.
func Default() Opts { return Opts{Ops: 12000, Warmup: 6000, Seed: 1} }

// Quick returns reduced settings for benches and CI.
func Quick() Opts {
	return Opts{Ops: 2500, Warmup: 1500, Seed: 1,
		Benchmarks: []string{"bodytrack", "canneal", "freqmine", "x264"}}
}

// profiles resolves the benchmark list.
func (o Opts) profiles() ([]trace.Profile, error) {
	if o.Benchmarks == nil {
		return trace.Profiles(), nil
	}
	var out []trace.Profile
	for _, n := range o.Benchmarks {
		p, ok := trace.ByName(n)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}

// runner resolves the cell scheduler, creating a private one (default
// parallelism, memoization on) when the caller did not share one.
func (o Opts) runner() *simrun.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return simrun.New(0, true)
}

// newAlg builds a fresh algorithm instance per run (SC² carries trained
// state, so sharing across systems would leak information).
func newAlg(name string) compress.Algorithm {
	a, err := compress.New(name)
	if err != nil {
		panic(err)
	}
	return a
}

// submitCfg fingerprints the cell build describes and schedules it; the
// runner invokes build again on execution so every simulation gets fresh
// algorithm state.
func submitCfg(r *simrun.Runner, build func() cmp.Config) *simrun.Future {
	cfg := build()
	return r.Submit(simrun.KeyFor(&cfg), func() (cmp.Results, error) {
		c := build()
		sys, err := cmp.New(c)
		if err != nil {
			return cmp.Results{}, err
		}
		return sys.Run()
	})
}

// submitOne schedules one (mode, algorithm, profile) full-system
// simulation cell.
func submitOne(r *simrun.Runner, mode cmp.Mode, alg string, prof trace.Profile, o Opts, k int) *simrun.Future {
	return submitCfg(r, func() cmp.Config {
		var a compress.Algorithm
		if mode != cmp.Baseline {
			a = newAlg(alg)
		}
		cfg := cmp.DefaultConfig(mode, a, prof)
		cfg.OpsPerCore = o.Ops
		cfg.WarmupOps = o.Warmup
		cfg.Seed = o.Seed
		if k != 0 {
			cfg.K = k
		}
		return cfg
	})
}

// table renders rows with a header through a tabwriter.
func table(header []string, rows [][]string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return b.String()
}

// --- Table 1 ---------------------------------------------------------------

// Table1Row is one compression scheme's parameters: the hardware latencies
// (pinned constants) and the compression ratio measured on the synthetic
// PARSEC block population.
type Table1Row struct {
	Scheme    string
	CompLat   int
	DecompLat int
	Ratio     float64
	// PaperRatio is Table 1's published value (0 when the paper leaves it
	// blank), kept for EXPERIMENTS.md comparison.
	PaperRatio float64
}

// Table1Result is the regenerated Table 1.
type Table1Result struct{ Rows []Table1Row }

// Table1 measures every implemented scheme over a sample of all profiles'
// blocks (SC² is trained on a disjoint sample first, mirroring its
// hardware sampling phase).
func Table1(o Opts) (Table1Result, error) {
	profs, err := o.profiles()
	if err != nil {
		return Table1Result{}, err
	}
	paper := map[string]float64{"fpc": 1.5, "sfpc": 1.33, "bdi": 1.57, "sc2": 2.4, "delta": 1.57}
	var res Table1Result
	for _, name := range []string{"delta", "bdi", "fpc", "sfpc", "cpack", "sc2", "fvc"} {
		raw, comp := 0, 0
		// SC² is a *statistical* compressor: its value table is trained
		// per workload (the hardware samples the running application), so
		// the ratio is measured with one freshly trained instance per
		// profile. The stateless schemes are unaffected by the split.
		for _, p := range profs {
			alg := newAlg(name)
			var train, test [][]byte
			for i := 0; i < 800; i++ {
				addr := trace.PrivateBase(i%8) + uint64(i)*13
				if i%5 != 0 {
					train = append(train, p.Content(addr))
				} else {
					test = append(test, p.Content(addr))
				}
			}
			switch a := alg.(type) {
			case *compress.SC2:
				a.Train(train)
			case *compress.FVC:
				a.Train(train)
			}
			var scratch [compress.BlockSize]byte
			for _, b := range test {
				c := alg.AppendCompress(scratch[:0], b)
				raw += compress.BlockSize
				comp += c.SizeBytes()
			}
		}
		a := newAlg(name)
		res.Rows = append(res.Rows, Table1Row{
			Scheme:     name,
			CompLat:    a.CompLatency(),
			DecompLat:  a.DecompLatency(),
			Ratio:      float64(raw) / float64(comp),
			PaperRatio: paper[name],
		})
	}
	return res, nil
}

// Table renders the result.
func (r Table1Result) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		paper := "-"
		if row.PaperRatio > 0 {
			paper = fmt.Sprintf("%.2f", row.PaperRatio)
		}
		rows = append(rows, []string{
			row.Scheme,
			fmt.Sprintf("%d cyc", row.CompLat),
			fmt.Sprintf("%d cyc", row.DecompLat),
			fmt.Sprintf("%.2f", row.Ratio),
			paper,
		})
	}
	return table([]string{"scheme", "comp", "decomp", "ratio(meas)", "ratio(paper)"}, rows)
}

// --- Fig. 5 / Fig. 6 -------------------------------------------------------

// LatencyRow is one benchmark's normalized on-chip data access latency
// (Ideal = 1.0), the paper's Figs. 5/6/8 metric.
type LatencyRow struct {
	Bench string
	CC    float64
	CNC   float64
	DISCO float64
	// Raw ideal latency in cycles (denominator), for diagnostics.
	IdealCycles float64
}

// LatencyResult is a Fig. 5-style experiment outcome.
type LatencyResult struct {
	Algorithm string
	Rows      []LatencyRow
	GMean     LatencyRow
}

// latencyFigure runs CC/CNC/DISCO/Ideal for every benchmark with one
// algorithm at mesh radix k.
func latencyFigure(alg string, o Opts, k int) (LatencyResult, error) {
	profs, err := o.profiles()
	if err != nil {
		return LatencyResult{}, err
	}
	res := LatencyResult{Algorithm: alg}
	r := o.runner()
	modes := []cmp.Mode{cmp.Ideal, cmp.CC, cmp.CNC, cmp.DISCO}
	futs := make([][]*simrun.Future, len(profs))
	for i, p := range profs {
		for _, m := range modes {
			futs[i] = append(futs[i], submitOne(r, m, alg, p, o, k))
		}
	}
	var gcc, gcnc, gdisco []float64
	for i, p := range profs {
		ideal, err := futs[i][0].Wait()
		if err != nil {
			return res, err
		}
		cc, err := futs[i][1].Wait()
		if err != nil {
			return res, err
		}
		cnc, err := futs[i][2].Wait()
		if err != nil {
			return res, err
		}
		d, err := futs[i][3].Wait()
		if err != nil {
			return res, err
		}
		row := LatencyRow{
			Bench:       p.Name,
			CC:          cc.AvgMissLatency / ideal.AvgMissLatency,
			CNC:         cnc.AvgMissLatency / ideal.AvgMissLatency,
			DISCO:       d.AvgMissLatency / ideal.AvgMissLatency,
			IdealCycles: ideal.AvgMissLatency,
		}
		res.Rows = append(res.Rows, row)
		gcc = append(gcc, row.CC)
		gcnc = append(gcnc, row.CNC)
		gdisco = append(gdisco, row.DISCO)
	}
	res.GMean = LatencyRow{
		Bench: "gmean",
		CC:    stats.GeoMean(gcc),
		CNC:   stats.GeoMean(gcnc),
		DISCO: stats.GeoMean(gdisco),
	}
	return res, nil
}

// Fig5 regenerates Figure 5: normalized latency with the paper's
// delta-based compressor on the 4×4 CMP.
func Fig5(o Opts) (LatencyResult, error) { return latencyFigure("delta", o, 0) }

// Fig6 regenerates Figure 6: the same experiment with FPC and SC².
func Fig6(o Opts) (map[string]LatencyResult, error) {
	out := make(map[string]LatencyResult, 2)
	for _, alg := range []string{"fpc", "sc2"} {
		r, err := latencyFigure(alg, o, 0)
		if err != nil {
			return nil, err
		}
		out[alg] = r
	}
	return out, nil
}

// Table renders a latency figure.
func (r LatencyResult) Table() string {
	rows := make([][]string, 0, len(r.Rows)+1)
	for _, row := range append(r.Rows, r.GMean) {
		rows = append(rows, []string{
			row.Bench,
			fmt.Sprintf("%.3f", row.CC),
			fmt.Sprintf("%.3f", row.CNC),
			fmt.Sprintf("%.3f", row.DISCO),
		})
	}
	return fmt.Sprintf("normalized on-chip data access latency (Ideal=1.0), algorithm=%s\n%s",
		r.Algorithm, table([]string{"benchmark", "CC", "CNC", "DISCO"}, rows))
}

// DiscoGainOverCC returns the gmean latency advantage of DISCO over CC in
// percent (the paper's headline number).
func (r LatencyResult) DiscoGainOverCC() float64 {
	return (r.GMean.CC - r.GMean.DISCO) / r.GMean.CC * 100
}

// DiscoGainOverCNC is the same against CNC.
func (r LatencyResult) DiscoGainOverCNC() float64 {
	return (r.GMean.CNC - r.GMean.DISCO) / r.GMean.CNC * 100
}

// --- Fig. 7 ----------------------------------------------------------------

// EnergyRow is one benchmark's memory-subsystem energy normalized to the
// no-compression baseline.
type EnergyRow struct {
	Bench string
	CC    float64
	CNC   float64
	DISCO float64
	// DiscoBreakdown keeps the absolute component split for the report.
	DiscoBreakdown energy.Breakdown
}

// EnergyResult is the Fig. 7 outcome.
type EnergyResult struct {
	Rows  []EnergyRow
	GMean EnergyRow
}

// Fig7 regenerates Figure 7 with the delta compressor.
func Fig7(o Opts) (EnergyResult, error) {
	profs, err := o.profiles()
	if err != nil {
		return EnergyResult{}, err
	}
	var res EnergyResult
	r := o.runner()
	modes := []cmp.Mode{cmp.Baseline, cmp.CC, cmp.CNC, cmp.DISCO}
	futs := make([][]*simrun.Future, len(profs))
	for i, p := range profs {
		for _, m := range modes {
			futs[i] = append(futs[i], submitOne(r, m, "delta", p, o, 0))
		}
	}
	var gcc, gcnc, gdisco []float64
	for i, p := range profs {
		base, err := futs[i][0].Wait()
		if err != nil {
			return res, err
		}
		cc, err := futs[i][1].Wait()
		if err != nil {
			return res, err
		}
		cnc, err := futs[i][2].Wait()
		if err != nil {
			return res, err
		}
		d, err := futs[i][3].Wait()
		if err != nil {
			return res, err
		}
		bt := base.Energy.OnChip()
		row := EnergyRow{
			Bench:          p.Name,
			CC:             cc.Energy.OnChip() / bt,
			CNC:            cnc.Energy.OnChip() / bt,
			DISCO:          d.Energy.OnChip() / bt,
			DiscoBreakdown: d.Energy,
		}
		res.Rows = append(res.Rows, row)
		gcc = append(gcc, row.CC)
		gcnc = append(gcnc, row.CNC)
		gdisco = append(gdisco, row.DISCO)
	}
	res.GMean = EnergyRow{
		Bench: "gmean",
		CC:    stats.GeoMean(gcc),
		CNC:   stats.GeoMean(gcnc),
		DISCO: stats.GeoMean(gdisco),
	}
	return res, nil
}

// Table renders the energy figure.
func (r EnergyResult) Table() string {
	rows := make([][]string, 0, len(r.Rows)+1)
	for _, row := range append(r.Rows, r.GMean) {
		rows = append(rows, []string{
			row.Bench,
			fmt.Sprintf("%.3f", row.CC),
			fmt.Sprintf("%.3f", row.CNC),
			fmt.Sprintf("%.3f", row.DISCO),
		})
	}
	return "on-chip memory-subsystem energy (NoC+NUCA) normalized to no-compression baseline (delta)\n" +
		table([]string{"benchmark", "CC", "CNC", "DISCO"}, rows)
}

// --- Fig. 8 ----------------------------------------------------------------

// ScaleRow is one mesh size's gmean normalized latency for CC and DISCO
// plus DISCO's gain, the paper's scalability metric.
type ScaleRow struct {
	K         int
	Banks     int
	CC        float64
	DISCO     float64
	GainPct   float64
	Benchmark string // "gmean" over the option set
}

// ScaleResult is the Fig. 8 outcome.
type ScaleResult struct{ Rows []ScaleRow }

// Fig8 regenerates Figure 8: 2×2, 4×4 and 8×8 meshes (4/16/64 NUCA
// banks) with the delta compressor.
func Fig8(o Opts) (ScaleResult, error) {
	profs, err := o.profiles()
	if err != nil {
		return ScaleResult{}, err
	}
	var res ScaleResult
	r := o.runner()
	ks := []int{2, 4, 8}
	modes := []cmp.Mode{cmp.Ideal, cmp.CC, cmp.DISCO}
	futs := make(map[int][][]*simrun.Future, len(ks))
	for _, k := range ks {
		ops := o
		if k == 8 && ops.Ops > 4000 {
			// 64-core runs are ~8x the work; cap them to keep the figure
			// affordable without changing its trend.
			ops.Ops, ops.Warmup = 4000, 2000
		}
		fs := make([][]*simrun.Future, len(profs))
		for i, p := range profs {
			for _, m := range modes {
				fs[i] = append(fs[i], submitOne(r, m, "delta", p, ops, k))
			}
		}
		futs[k] = fs
	}
	for _, k := range ks {
		var gcc, gdisco []float64
		for i := range profs {
			ideal, err := futs[k][i][0].Wait()
			if err != nil {
				return res, err
			}
			cc, err := futs[k][i][1].Wait()
			if err != nil {
				return res, err
			}
			d, err := futs[k][i][2].Wait()
			if err != nil {
				return res, err
			}
			gcc = append(gcc, cc.AvgMissLatency/ideal.AvgMissLatency)
			gdisco = append(gdisco, d.AvgMissLatency/ideal.AvgMissLatency)
		}
		row := ScaleRow{
			K: k, Banks: k * k,
			CC:        stats.GeoMean(gcc),
			DISCO:     stats.GeoMean(gdisco),
			Benchmark: "gmean",
		}
		row.GainPct = (row.CC - row.DISCO) / row.CC * 100
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the scalability figure.
func (r ScaleResult) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%dx%d", row.K, row.K),
			fmt.Sprintf("%d", row.Banks),
			fmt.Sprintf("%.3f", row.CC),
			fmt.Sprintf("%.3f", row.DISCO),
			fmt.Sprintf("%.1f%%", row.GainPct),
		})
	}
	return "scalability: gmean normalized latency vs mesh size (delta)\n" +
		table([]string{"mesh", "banks", "CC", "DISCO", "DISCO gain"}, rows)
}

// --- §4.3 area ---------------------------------------------------------------

// AreaTable renders the Section 4.3 overhead comparison.
func AreaTable() string {
	rows := [][]string{}
	for _, mode := range []string{"baseline", "cc", "cnc", "disco"} {
		a := energy.Area(mode, 16, 4)
		rows = append(rows, []string{
			mode,
			fmt.Sprintf("%d", a.Engines),
			fmt.Sprintf("%.3f mm2", a.EngineTotal),
			fmt.Sprintf("%.1f%%", a.OverheadVsRouterPct),
			fmt.Sprintf("%.2f%%", a.OverheadVsCachePct),
		})
	}
	return "area overhead, 16 tiles, 4MB NUCA, 45nm (Section 4.3)\n" +
		table([]string{"design", "engines", "engine area", "vs router", "vs 4MB NUCA"}, rows)
}
