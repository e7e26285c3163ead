// Command discotrace analyzes binary simulator traces (written with
// discosim -trace-bin or any noc.BinaryTracer) offline: per-packet
// latency breakdowns, the DISCO engine-overlap ratio, per-router
// activity heatmaps, engine utilization and the slowest packets.
//
// Usage:
//
//	discotrace trace.bin
//	discotrace -top 20 -no-heatmap trace.bin
//	discotrace -perfetto out.json trace.bin   # trace-event JSON for ui.perfetto.dev
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"github.com/disco-sim/disco/internal/stats"
	"github.com/disco-sim/disco/internal/tracefmt"
)

func main() {
	var (
		topN      = flag.Int("top", 10, "number of slowest packets to list")
		noHeatmap = flag.Bool("no-heatmap", false, "skip the per-router heatmap tables")
		perfetto  = flag.String("perfetto", "", "write Perfetto/Chrome trace-event JSON to this file instead of the text report")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: discotrace [flags] trace.bin")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "discotrace:", err)
		os.Exit(1)
	}
	defer f.Close()
	r, err := tracefmt.NewReader(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discotrace:", err)
		os.Exit(1)
	}
	if *perfetto != "" {
		out, err := os.Create(*perfetto)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discotrace:", err)
			os.Exit(1)
		}
		if err := exportPerfetto(r, out); err != nil {
			_ = out.Close()
			fmt.Fprintln(os.Stderr, "discotrace:", err)
			os.Exit(1)
		}
		if err := out.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "discotrace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *perfetto)
		return
	}
	a, err := analyze(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discotrace:", err)
		os.Exit(1)
	}
	if err := a.render(os.Stdout, *topN, !*noHeatmap); err != nil {
		fmt.Fprintln(os.Stderr, "discotrace:", err)
		os.Exit(1)
	}
}

// pktView is one delivered packet reconstructed from its records.
type pktView struct {
	id       uint64
	src, dst int
	class    uint8
	inject   uint64
	eject    uint64
	tracefmt.LatencyBreakdown
	hops, conversions int
}

// view reconstructs the packet delivered at eject from its ejection
// record, with the same latency split as noc.Packet.Breakdown.
func view(inject uint64, rec *tracefmt.PacketInfo, eject uint64) pktView {
	return pktView{
		id: rec.ID, src: rec.Src, dst: rec.Dst, class: rec.Class,
		inject: inject, eject: eject,
		hops: rec.Hops, conversions: rec.Conversions,
		LatencyBreakdown: tracefmt.SplitLatency(eject-inject, rec.Queueing, rec.EngineCycles, rec.EngineStall),
	}
}

// routerStats is per-router activity accumulated from events.
type routerStats struct {
	routes, saGrants, ejects uint64
	engineStarts, engineEnds uint64
	engineBusy               uint64
	engineStartCycle         uint64 // in-flight job start (stamp+1, 0 = idle)
}

// analysis is everything discotrace derives from one trace.
type analysis struct {
	nodes    int
	records  uint64
	byKind   map[tracefmt.Kind]uint64
	first    uint64
	last     uint64
	routers  map[int]*routerStats
	injected map[uint64]uint64 // packet id -> inject cycle
	pkts     []pktView         // delivered packets, in ejection order

	queueMean, serialMean, engineMean, totalMean stats.Mean
	engineBusySum, engineExposedSum              uint64
}

// analyze consumes every record of the trace.
func analyze(r *tracefmt.Reader) (*analysis, error) {
	a := &analysis{
		nodes:    r.Nodes(),
		byKind:   map[tracefmt.Kind]uint64{},
		routers:  map[int]*routerStats{},
		injected: map[uint64]uint64{},
	}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		a.records++
		a.byKind[rec.Kind]++
		if a.records == 1 || rec.Cycle < a.first {
			a.first = rec.Cycle
		}
		if rec.Cycle > a.last {
			a.last = rec.Cycle
		}
		var rs *routerStats
		if rec.Router >= 0 {
			rs = a.routers[rec.Router]
			if rs == nil {
				rs = &routerStats{}
				a.routers[rec.Router] = rs
			}
		}
		switch rec.Kind {
		case tracefmt.KindInject:
			if rec.HasPacket {
				a.injected[rec.Pkt.ID] = rec.Cycle
			}
		case tracefmt.KindEject:
			if rs != nil {
				rs.ejects++
			}
			if !rec.HasPacket {
				break
			}
			inject, ok := a.injected[rec.Pkt.ID]
			if !ok {
				break // injected before tracing started
			}
			delete(a.injected, rec.Pkt.ID)
			v := view(inject, &rec.Pkt, rec.Cycle)
			a.pkts = append(a.pkts, v)
			a.totalMean.Add(float64(v.Total))
			a.queueMean.Add(float64(v.Queue))
			a.serialMean.Add(float64(v.Serialization))
			a.engineMean.Add(float64(v.Engine))
			a.engineBusySum += v.EngineBusy
			a.engineExposedSum += v.Engine
		case tracefmt.KindRoute:
			if rs != nil {
				rs.routes++
			}
		case tracefmt.KindSAGrant:
			if rs != nil {
				rs.saGrants++
			}
		case tracefmt.KindEngineStart:
			if rs != nil {
				rs.engineStarts++
				rs.engineStartCycle = rec.Cycle + 1
			}
		case tracefmt.KindEngineDone, tracefmt.KindEngineFail, tracefmt.KindEngineRelease:
			if rs != nil {
				rs.engineEnds++
				if rs.engineStartCycle != 0 {
					rs.engineBusy += rec.Cycle - (rs.engineStartCycle - 1)
					rs.engineStartCycle = 0
				}
			}
		}
	}
	if a.nodes == 0 { // header from an old writer: infer the mesh size
		maxID := -1
		for id := range a.routers {
			if id > maxID {
				maxID = id
			}
		}
		a.nodes = maxID + 1
	}
	return a, nil
}

// overlapRatio is the aggregate hidden fraction of engine service time.
func (a *analysis) overlapRatio() float64 {
	if a.engineBusySum == 0 {
		return 0
	}
	return float64(a.engineBusySum-a.engineExposedSum) / float64(a.engineBusySum)
}

// span is the traced cycle range.
func (a *analysis) span() uint64 {
	if a.records == 0 {
		return 0
	}
	return a.last - a.first + 1
}

// render prints the report.
func (a *analysis) render(w io.Writer, topN int, heatmap bool) error {
	if a.records == 0 {
		_, err := fmt.Fprintln(w, "empty trace")
		return err
	}
	if _, err := fmt.Fprintf(w,
		"trace: %d records over cycles %d..%d (%d nodes)\n",
		a.records, a.first, a.last, a.nodes); err != nil {
		return err
	}
	if err := a.renderBreakdown(w); err != nil {
		return err
	}
	if heatmap {
		if err := a.renderHeatmaps(w); err != nil {
			return err
		}
	}
	if err := a.renderEngines(w); err != nil {
		return err
	}
	return a.renderSlowest(w, topN)
}

// renderBreakdown prints the aggregate latency decomposition and the
// overlap ratio — the trace-level view of the paper's Section 3.2
// claim that transform latency hides under queuing.
func (a *analysis) renderBreakdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "\n== packet latency breakdown (%d delivered packets) ==\n",
		len(a.pkts)); err != nil {
		return err
	}
	if len(a.pkts) == 0 {
		_, err := fmt.Fprintln(w, "no complete inject->eject pairs in trace")
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "component\tmean cyc/pkt\tshare")
	total := a.totalMean.Mean()
	row := func(name string, m *stats.Mean) {
		share := 0.0
		if total > 0 {
			share = m.Mean() / total
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f%%\n", name, m.Mean(), share*100)
	}
	row("queue (contention)", &a.queueMean)
	row("serialization+links", &a.serialMean)
	row("engine (exposed)", &a.engineMean)
	fmt.Fprintf(tw, "total\t%.2f\t\n", total)
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"engine overlap: %d of %d engine cycles hidden under stalls -> overlap ratio %.2f\n",
		a.engineBusySum-a.engineExposedSum, a.engineBusySum, a.overlapRatio())
	return err
}

// renderHeatmaps prints K×K activity grids.
func (a *analysis) renderHeatmaps(w io.Writer) error {
	k := int(math.Sqrt(float64(a.nodes)))
	if k*k != a.nodes || k == 0 {
		return nil // not a square mesh; skip grids
	}
	grids := []struct {
		title string
		get   func(*routerStats) uint64
	}{
		{"switch grants per router (packets switched)", func(r *routerStats) uint64 { return r.saGrants }},
		{"engine starts per router", func(r *routerStats) uint64 { return r.engineStarts }},
	}
	for _, g := range grids {
		any := false
		for _, rs := range a.routers {
			if g.get(rs) > 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		if _, err := fmt.Fprintf(w, "\n== %s ==\n", g.title); err != nil {
			return err
		}
		for y := 0; y < k; y++ {
			var b strings.Builder
			for x := 0; x < k; x++ {
				v := uint64(0)
				if rs := a.routers[y*k+x]; rs != nil {
					v = g.get(rs)
				}
				fmt.Fprintf(&b, "%8d", v)
			}
			if _, err := fmt.Fprintln(w, b.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderEngines prints per-router engine utilization.
func (a *analysis) renderEngines(w io.Writer) error {
	ids := make([]int, 0, len(a.routers))
	for id := range a.routers {
		if a.routers[id].engineStarts > 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Ints(ids)
	if _, err := fmt.Fprintf(w, "\n== engine utilization (traced span %d cycles) ==\n", a.span()); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "router\tstarts\tends\tbusy cyc\tutilization")
	for _, id := range ids {
		rs := a.routers[id]
		util := 0.0
		if a.span() > 0 {
			util = float64(rs.engineBusy) / float64(a.span())
		}
		fmt.Fprintf(tw, "r%02d\t%d\t%d\t%d\t%.1f%%\n",
			id, rs.engineStarts, rs.engineEnds, rs.engineBusy, util*100)
	}
	return tw.Flush()
}

// renderSlowest prints the top-N slowest delivered packets.
func (a *analysis) renderSlowest(w io.Writer, n int) error {
	if n <= 0 || len(a.pkts) == 0 {
		return nil
	}
	sorted := make([]pktView, len(a.pkts))
	copy(sorted, a.pkts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Total != sorted[j].Total {
			return sorted[i].Total > sorted[j].Total
		}
		return sorted[i].id < sorted[j].id // deterministic tie-break
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	if _, err := fmt.Fprintf(w, "\n== %d slowest packets ==\n", n); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "pkt\troute\ttotal\tqueue\tserial\tengine\thops\tconv\tinject@")
	for _, v := range sorted[:n] {
		fmt.Fprintf(tw, "%d\t%d->%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			v.id, v.src, v.dst, v.Total, v.Queue, v.Serialization, v.Engine,
			v.hops, v.conversions, v.inject)
	}
	return tw.Flush()
}
