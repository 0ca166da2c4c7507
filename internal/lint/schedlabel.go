package lint

import "go/ast"

// SchedLabel requires the label handed to simkit.Scheduler.At and After to
// be a compile-time string constant (literal, package-level const, or
// their concatenation). Labels are diagnostic only — nothing in production
// reads them — yet a label built per event ("flush-done "+string(vm.ID))
// concatenates, and allocates, on every scheduled callback of the
// simulation's hot path. The entity belongs in the callback's closure.
// The check covers the simulation packages (DeterministicPackages), the
// code the event loop runs. It is syntactic: it matches three-argument
// At/After calls on any receiver. internal/simkit itself is exempt, since
// the scheduler's After forwards its caller's label to At.
var SchedLabel = &Analyzer{
	Name: "schedlabel",
	Doc:  "simkit scheduler labels (At/After) must be compile-time string constants",
	Run:  runSchedLabel,
}

func runSchedLabel(pass *Pass) {
	rel := pass.File.Pkg.Rel
	if !DeterministicPackages[rel] || rel == "internal/simkit" {
		return
	}
	ast.Inspect(pass.File.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "At" && sel.Sel.Name != "After") {
			return true
		}
		if _, isConst := pass.File.StringConst(call.Args[1]); !isConst {
			pass.Reportf(call.Args[1],
				"scheduler label passed to %s must be a compile-time string constant, not built per event; keep the entity in the callback",
				sel.Sel.Name)
		}
		return true
	})
}
