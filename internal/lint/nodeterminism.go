package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// NoDeterminism enforces the simulator's reproducibility policy inside
// the sim-core packages (internal/{noc,cmp,disco,cache,trace}):
//
//   - no wall-clock reads (time.Now/Since/Until) — cycle counts are the
//     only clock;
//   - no top-level math/rand functions (process-global RNG state) — all
//     randomness must flow through an injected, explicitly seeded
//     *rand.Rand;
//   - no map iteration that feeds output or order-dependent
//     accumulation — identical seeds must give byte-identical traces
//     and stats;
//   - no sync.Map iteration (Range visits entries in unspecified order,
//     on top of sync.Map being concurrency machinery the sim core has
//     no use for);
//   - no select over multiple ready channels — the runtime picks a case
//     pseudo-randomly, so replaying a seed would not replay the
//     schedule.
//
// internal/obs is the one sanctioned exception: it exists to observe
// wall-clock time (and uses atomics to do so race-free), and is
// engineered so nothing it measures can flow back into simulation
// state. The carve-out is explicit in Match rather than implicit in
// the sim-core list so the policy survives package moves; the
// phasesafety analyzer closes the loop by flagging compute-phase code
// that calls into internal/obs.
var NoDeterminism = &Analyzer{
	Name:  "nodeterminism",
	Doc:   "forbid wall-clock, global math/rand and unordered map iteration in sim-core packages",
	Match: func(path string) bool { return isSimCore(path) && !isObsPkg(path) },
	Run:   runNoDeterminism,
}

// isObsPkg reports whether path is the internal/obs observability
// package — the sanctioned home for wall-clock reads.
func isObsPkg(path string) bool {
	return path == "internal/obs" || strings.HasSuffix(path, "/internal/obs") ||
		strings.Contains(path, "internal/obs/")
}

// globalRandFuncs are the math/rand (and v2) top-level functions backed
// by the process-global generator.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "N": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true,
}

// wallClockFuncs are the time-package entry points that read the wall
// clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// ioCallRe matches function names that emit output.
var ioCallRe = regexp.MustCompile(`^(Print|Printf|Println|Fprint|Fprintf|Fprintln|Write|WriteString|WriteByte|WriteRune)$`)

func runNoDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pkgPath := importedPkgPath(pass, n.X)
				switch pkgPath {
				case "time":
					if wallClockFuncs[n.Sel.Name] {
						pass.Reportf(n.Pos(), "time.%s reads the wall clock; simulators must be cycle-driven (use the simulated clock)", n.Sel.Name)
					}
				case "math/rand", "math/rand/v2":
					if globalRandFuncs[n.Sel.Name] {
						pass.Reportf(n.Pos(), "rand.%s uses process-global RNG state; inject a seeded *rand.Rand instead", n.Sel.Name)
					}
				}
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			case *ast.CallExpr:
				checkSyncMapRange(pass, n)
			case *ast.SelectStmt:
				checkMultiReadySelect(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkSyncMapRange flags sync.Map.Range calls: iteration order is
// unspecified, so any effect of the callback is nondeterministic.
func checkSyncMapRange(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Range" {
		return
	}
	named := namedOf(pass.TypeOf(sel.X))
	if named == nil || named.Obj().Name() != "Map" {
		return
	}
	if pkg := named.Obj().Pkg(); pkg == nil || pkg.Path() != "sync" {
		return
	}
	pass.Reportf(call.Pos(), "sync.Map.Range iterates in nondeterministic order; use an ordered structure (sorted keys, slices) in sim-core packages")
}

// checkMultiReadySelect flags select statements with two or more
// communication cases: when several are ready the runtime chooses
// pseudo-randomly, which no seed replays.
func checkMultiReadySelect(pass *Pass, sel *ast.SelectStmt) {
	comms := 0
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms >= 2 {
		pass.Reportf(sel.Pos(), "select with %d communication cases chooses pseudo-randomly among ready channels; sim-core scheduling must be deterministic (single channel + explicit ordering)", comms)
	}
}

// importedPkgPath returns the import path when e is a package
// identifier, else "".
func importedPkgPath(pass *Pass, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// checkMapRange flags range-over-map loops whose body emits output or
// accumulates into an outer variable (both observe Go's randomized map
// order).
func checkMapRange(pass *Pass, file *ast.File, rs *ast.RangeStmt) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	fn := funcFor(file, rs.Pos())
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if ioCallRe.MatchString(fun.Sel.Name) {
				pass.Reportf(call.Pos(), "%s inside range over map emits output in nondeterministic order; iterate sorted keys instead", fun.Sel.Name)
			}
		case *ast.Ident:
			if fun.Name != "append" || len(call.Args) == 0 {
				return true
			}
			if _, isBuiltin := pass.Info.Uses[fun].(*types.Builtin); !isBuiltin {
				return true
			}
			dst, ok := call.Args[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[dst]
			if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()) {
				return true // declared inside the loop: order cannot escape
			}
			if sortedLater(pass, fn, obj) {
				return true
			}
			pass.Reportf(call.Pos(), "append to %s inside range over map is order-dependent; sort %s afterwards or iterate sorted keys", dst.Name, dst.Name)
		}
		return true
	})
}

// sortedLater reports whether fn contains a sort/slices call applied to
// obj, which makes the accumulation order-insensitive.
func sortedLater(pass *Pass, fn *ast.FuncDecl, obj types.Object) bool {
	if fn == nil || fn.Body == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted {
			return !sorted
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch importedPkgPath(pass, sel.X) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}
