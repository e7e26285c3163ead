package lint

import (
	"go/types"
	"strings"
)

// HotAlloc enforces the zero-alloc hot-path goal (ROADMAP item 2)
// interprocedurally: no heap allocation may be reachable from the
// per-cycle and per-block entry points, because a single allocation in
// NoCStep or a codec multiplies by millions of cycles/blocks per run.
//
// Per-package roots (the call graph does not cross packages; each
// package's contract is rooted at its own entry points):
//
//	internal/noc       (*Network).Step       — the cycle loop
//	internal/disco     (*Engine).Tick        — per-cycle engine service
//	internal/compress  AppendCompress / DecompressInto,
//	                   (*Stateful).Encode / Decode
//	                                         — the codec block paths
//	internal/cmp       (*System).Step        — the full-system cycle loop
//	internal/stream    (*Conn).Read / Write  — the discod per-block path
//
// Exemptions, in order of preference when fixing a finding:
//
//   - recycled scratch: appends into a slot that is reset with
//     `s = s[:0]` anywhere in the package amortize to zero in steady
//     state (the staged-effect idiom of internal/noc);
//   - escaping results: an allocation bound to a returned value is the
//     function's product, not scratch. For codecs that product is an
//     append onto the caller's dst, which allocates only when the
//     caller sized dst too small (Stateful's scratch never is:
//     TestStatefulAllocs and TestConnEchoAllocs hold the stream path to
//     zero at run time), and callers that retain payloads append them
//     into memory they own (a packet's buffer, the simulator's arena);
//   - init paths: traversal is pruned at functions named new*/New*/
//     init*/Init* — construction may allocate, cycles may not.
//
// Anything else needs a justified //lint:ignore hotalloc (recorded in
// CHANGES.md), e.g. a one-time lazy init or a fault-injection-only path.
var HotAlloc = &Analyzer{
	Name:  "hotalloc",
	Doc:   "no heap allocation reachable from the cycle loop, codec or stream entry points (recycled scratch, escaping results and init paths exempt)",
	Match: isHotPathPkg,
	Run:   runHotAlloc,
}

// isHotPathPkg restricts hotalloc to the packages holding hot-path roots.
func isHotPathPkg(path string) bool {
	for _, sub := range []string{"internal/noc", "internal/disco", "internal/compress", "internal/cmp", "internal/stream"} {
		if strings.HasSuffix(path, sub) {
			return true
		}
	}
	return false
}

// hotAllocRoots resolves the hot-path entry points of the package under
// analysis.
func hotAllocRoots(pass *Pass, pf *pkgFacts) []*types.Func {
	switch {
	case strings.HasSuffix(pass.PkgPath, "internal/noc"):
		return pf.rootsNamed("Network", func(name string) bool { return name == "Step" })
	case strings.HasSuffix(pass.PkgPath, "internal/disco"):
		return pf.rootsNamed("Engine", func(name string) bool { return name == "Tick" })
	case strings.HasSuffix(pass.PkgPath, "internal/cmp"):
		return pf.rootsNamed("System", func(name string) bool { return name == "Step" })
	case strings.HasSuffix(pass.PkgPath, "internal/compress"):
		// Every codec's one encoder and one decoder (DESIGN.md §12) run
		// once per block. Stateful's Encode and Decode are the streaming
		// service's per-block codec calls.
		codec := pf.rootsNamed("", func(name string) bool {
			return name == "AppendCompress" || name == "DecompressInto"
		})
		return append(codec, pf.rootsNamed("Stateful", func(name string) bool {
			return name == "Encode" || name == "Decode"
		})...)
	case strings.HasSuffix(pass.PkgPath, "internal/stream"):
		return pf.rootsNamed("Conn", func(name string) bool { return name == "Read" || name == "Write" })
	}
	return nil
}

// isInitPath reports whether fn is an allowlisted construction/setup
// function: allocation is its job, and the cycle loop only reaches it
// through explicit reconfiguration, not steady-state stepping.
func isInitPath(fn *types.Func) bool {
	name := fn.Name()
	return hasPrefixFold(name, "new") || hasPrefixFold(name, "init")
}

func runHotAlloc(pass *Pass) error {
	pf := pass.facts()
	roots := hotAllocRoots(pass, pf)
	if len(roots) == 0 {
		return nil
	}
	for _, ff := range pf.orderedReachable(roots, isInitPath) {
		where := funcDisplayName(ff.fn)
		for _, a := range ff.allocs {
			if a.recycled || a.escapes {
				continue
			}
			pass.Reportf(a.pos, "heap allocation on the hot path (%s: %s in %s); hoist it to an init path, recycle scratch with s = s[:0], or justify with //lint:ignore hotalloc",
				a.kind, a.desc, where)
		}
	}
	return nil
}
