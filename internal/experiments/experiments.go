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
//	ablation — every Section 3.2–3.3 mechanism toggled
//
// plus analysis aids the paper alludes to but does not plot: the
// CCth/CDth calibration, the motivation statistics, the NoC sensitivity
// sweep, the energy composition and the open-loop NoC sweep.
//
// Each experiment returns structured rows (for tests and benches) and a
// formatted table (for the CLI). The Experiments table lists them all:
// its order is the print order, its All marks select "all" and the
// Report, and discosim's -exp, -exp all and -json all run from it.
// Every full-system cell is built by Opts.cell and collected by wait,
// and runs are deterministic for a fixed seed.
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

// cell schedules one full-system simulation: cmp.DefaultConfig for mode,
// a fresh alg instance (none for Baseline) and profile p, with o's ops,
// warmup and seed, then mut (nil for none). The runner builds the config
// again when the cell executes, so every simulation gets fresh algorithm
// state.
func (o Opts) cell(r *simrun.Runner, mode cmp.Mode, alg string, p trace.Profile, mut func(*cmp.Config)) *simrun.Future {
	build := func() cmp.Config {
		var a compress.Algorithm
		if mode != cmp.Baseline {
			a = newAlg(alg)
		}
		cfg := cmp.DefaultConfig(mode, a, p)
		cfg.OpsPerCore, cfg.WarmupOps, cfg.Seed = o.Ops, o.Warmup, o.Seed
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}
	cfg := build()
	return r.Submit(simrun.KeyFor(&cfg), func() (cmp.Results, error) {
		sys, err := cmp.New(build())
		if err != nil {
			return cmp.Results{}, err
		}
		return sys.Run()
	})
}

// wait collects a grid of futures into results, waiting in submission
// order, and returns the first error.
func wait(futs [][]*simrun.Future) ([][]cmp.Results, error) {
	res := make([][]cmp.Results, len(futs))
	for i, row := range futs {
		res[i] = make([]cmp.Results, len(row))
		for j, f := range row {
			r, err := f.Wait()
			if err != nil {
				return nil, err
			}
			res[i][j] = r
		}
	}
	return res, nil
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
type Table1Result struct {
	Rows []Table1Row
	// ByBench is each benchmark's measured ratio per scheme (in Rows
	// order), in profile order. It stays out of the JSON report, whose
	// bytes are pinned.
	ByBench []BenchRatios `json:"-"`
}

// BenchRatios is one benchmark's row of the Table 1 ratio matrix.
type BenchRatios struct {
	Bench  string
	Ratios []float64
}

// Table1 measures every implemented scheme over a sample of all profiles'
// blocks (SC² is trained on a disjoint sample first, mirroring its
// hardware sampling phase).
func Table1(o Opts) (Table1Result, error) {
	profs, err := o.profiles()
	if err != nil {
		return Table1Result{}, err
	}
	paper := map[string]float64{"fpc": 1.5, "sfpc": 1.33, "bdi": 1.57, "sc2": 2.4, "delta": 1.57}
	schemes := []string{"delta", "bdi", "fpc", "sfpc", "cpack", "sc2", "fvc"}
	res := Table1Result{ByBench: make([]BenchRatios, len(profs))}
	for i, p := range profs {
		res.ByBench[i] = BenchRatios{Bench: p.Name, Ratios: make([]float64, 0, len(schemes))}
	}
	// Every scheme measures the same sample: each profile's blocks are
	// materialized once, into one backing array.
	const samples = 800
	train, test := make([][][]byte, len(profs)), make([][][]byte, len(profs))
	blocks := make([]byte, 0, len(profs)*samples*compress.BlockSize)
	var gen trace.ContentGen
	for pi := range profs {
		for i := 0; i < samples; i++ {
			blocks = gen.Append(&profs[pi], blocks, trace.PrivateBase(i%8)+uint64(i)*13)
			b := blocks[len(blocks)-compress.BlockSize : len(blocks) : len(blocks)]
			if i%5 != 0 {
				train[pi] = append(train[pi], b)
			} else {
				test[pi] = append(test[pi], b)
			}
		}
	}
	for _, name := range schemes {
		raw, comp := 0, 0
		// SC² is a *statistical* compressor: its value table is trained
		// per workload (the hardware samples the running application), so
		// the ratio is measured with one freshly trained instance per
		// profile. The stateless schemes are unaffected by the split.
		for pi := range profs {
			alg := newAlg(name)
			switch a := alg.(type) {
			case *compress.SC2:
				a.Train(train[pi])
			case *compress.FVC:
				a.Train(train[pi])
			}
			var scratch [compress.BlockSize]byte
			praw, pcomp := 0, 0
			for _, b := range test[pi] {
				c := alg.AppendCompress(scratch[:0], b)
				praw += compress.BlockSize
				pcomp += c.SizeBytes()
			}
			raw, comp = raw+praw, comp+pcomp
			res.ByBench[pi].Ratios = append(res.ByBench[pi].Ratios, float64(praw)/float64(pcomp))
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

// BenchTable renders the measured ratio matrix: one row per benchmark,
// one column per scheme, and the overall ratio of each scheme last.
func (r Table1Result) BenchTable() string {
	header := []string{"benchmark"}
	overall := []string{"overall"}
	for _, row := range r.Rows {
		header = append(header, row.Scheme)
		overall = append(overall, fmt.Sprintf("%.2f", row.Ratio))
	}
	rows := make([][]string, 0, len(r.ByBench)+1)
	for _, b := range r.ByBench {
		cells := []string{b.Bench}
		for _, v := range b.Ratios {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		rows = append(rows, cells)
	}
	return table(header, append(rows, overall))
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
// algorithm on the 4×4 mesh.
func latencyFigure(alg string, o Opts) (LatencyResult, error) {
	profs, err := o.profiles()
	if err != nil {
		return LatencyResult{}, err
	}
	r := o.runner()
	modes := []cmp.Mode{cmp.Ideal, cmp.CC, cmp.CNC, cmp.DISCO}
	futs := make([][]*simrun.Future, len(profs))
	for i, p := range profs {
		for _, m := range modes {
			futs[i] = append(futs[i], o.cell(r, m, alg, p, nil))
		}
	}
	rs, err := wait(futs)
	if err != nil {
		return LatencyResult{}, err
	}
	res := LatencyResult{Algorithm: alg}
	var gcc, gcnc, gdisco []float64
	for i, p := range profs {
		ideal, cc, cnc, d := rs[i][0], rs[i][1], rs[i][2], rs[i][3]
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
func Fig5(o Opts) (LatencyResult, error) { return latencyFigure("delta", o) }

// Fig6 regenerates Figure 6: the same experiment with FPC and SC².
func Fig6(o Opts) (map[string]LatencyResult, error) {
	out := make(map[string]LatencyResult, 2)
	for _, alg := range []string{"fpc", "sc2"} {
		r, err := latencyFigure(alg, o)
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
	r := o.runner()
	modes := []cmp.Mode{cmp.Baseline, cmp.CC, cmp.CNC, cmp.DISCO}
	futs := make([][]*simrun.Future, len(profs))
	for i, p := range profs {
		for _, m := range modes {
			futs[i] = append(futs[i], o.cell(r, m, "delta", p, nil))
		}
	}
	rs, err := wait(futs)
	if err != nil {
		return EnergyResult{}, err
	}
	var res EnergyResult
	var gcc, gcnc, gdisco []float64
	for i, p := range profs {
		base, cc, cnc, d := rs[i][0], rs[i][1], rs[i][2], rs[i][3]
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
	r := o.runner()
	ks := []int{2, 4, 8}
	modes := []cmp.Mode{cmp.Ideal, cmp.CC, cmp.DISCO}
	futs := make([][][]*simrun.Future, len(ks))
	for ki, k := range ks {
		mesh := func(c *cmp.Config) {
			c.K = k
			if k == 8 && c.OpsPerCore > 4000 {
				// 64-core runs are ~8x the work; cap them to keep the
				// figure affordable without changing its trend.
				c.OpsPerCore, c.WarmupOps = 4000, 2000
			}
		}
		futs[ki] = make([][]*simrun.Future, len(profs))
		for i, p := range profs {
			for _, m := range modes {
				futs[ki][i] = append(futs[ki][i], o.cell(r, m, "delta", p, mesh))
			}
		}
	}
	var res ScaleResult
	for ki, k := range ks {
		rs, err := wait(futs[ki])
		if err != nil {
			return ScaleResult{}, err
		}
		var gcc, gdisco []float64
		for _, c := range rs {
			ideal, cc, d := c[0], c[1], c[2]
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
