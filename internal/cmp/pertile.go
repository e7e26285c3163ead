package cmp

import (
	"fmt"
	"strings"
)

// TileStats is one tile's local view of a finished run — useful for
// spotting hotspots (the MC tile, hot home banks) and load imbalance.
type TileStats struct {
	Tile        int
	L1Hits      uint64
	L1Misses    uint64
	BankHits    uint64
	BankMisses  uint64
	BankLines   int // valid lines at end of run
	BankSegs    int // occupied segments at end of run
	IsMC        bool
	EngineComps uint64 // in-network compressions at this tile's router
	EngineDecs  uint64
}

// PerTile snapshots per-tile statistics after a run.
func (s *System) PerTile() []TileStats {
	out := make([]TileStats, s.cfg.tiles())
	for i := range out {
		lines, segs := s.banks[i].Occupancy()
		out[i] = TileStats{
			Tile:       i,
			L1Hits:     s.l1s[i].Hits,
			L1Misses:   s.l1s[i].Misses,
			BankHits:   s.banks[i].Hits,
			BankMisses: s.banks[i].Misses,
			BankLines:  lines,
			BankSegs:   segs,
			IsMC:       i == s.cfg.MCNode,
		}
		if e := s.net.Routers[i].Engine(); e != nil {
			out[i].EngineComps = e.Compressions
			out[i].EngineDecs = e.Decompressions
		}
	}
	return out
}

// FormatPerTile renders the per-tile table.
func FormatPerTile(ts []TileStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-12s %-12s %-10s %-10s %s\n",
		"tile", "L1 hit/miss", "bank h/m", "lines", "segs", "engine c/d")
	for _, t := range ts {
		mc := ""
		if t.IsMC {
			mc = " [MC]"
		}
		fmt.Fprintf(&b, "%-5d %6d/%-6d %6d/%-6d %-10d %-10d %d/%d%s\n",
			t.Tile, t.L1Hits, t.L1Misses, t.BankHits, t.BankMisses,
			t.BankLines, t.BankSegs, t.EngineComps, t.EngineDecs, mc)
	}
	return b.String()
}
