// Package lockorder enforces the data plane's VM-lock protocol: VM locks
// never nest. A goroutine holding any Shim's mu must not take a Shim's mu
// again — another shim's (the classic AB/BA deadlock: transfer A→B
// locking (A, B) racing transfer B→A locking (B, A)) or the same owner
// expression's, which on a loop back-edge is the next iteration's shim.
// Every pipeline stage holds exactly one VM lock, so the rule has no
// exemptions.
package lockorder

import (
	"go/ast"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/matchutil"
)

// ownerType/fieldName identify the VM lock: the mu field on Shim.
const (
	ownerType = "Shim"
	fieldName = "mu"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name:     "lockorder",
	Doc:      "check that VM locks (Shim.mu) never nest",
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				checkFunc(pass, cfgs.FuncDecl(fn))
			case *ast.FuncLit:
				checkFunc(pass, cfgs.FuncLit(fn))
			}
			return true
		})
	}
	return nil, nil
}

// lockEvent is one VM-lock operation found in a CFG node.
type lockEvent struct {
	call     *ast.CallExpr
	owner    string // rendered owner expression, e.g. "src" in src.mu.Lock()
	op       string // "Lock" or "Unlock"
	deferred bool
}

// checkFunc walks the function's CFG tracking the set of held VM locks
// per path and reports any acquisition while one is already held.
func checkFunc(pass *analysis.Pass, g *cfg.CFG) {
	if g == nil || len(g.Blocks) == 0 {
		return
	}

	// held sets are small (the protocol allows at most one holding);
	// represent them as sorted-joined strings for memoization.
	type state struct {
		block int32
		held  string
	}
	seen := make(map[state]bool)
	reported := make(map[*ast.CallExpr]bool)

	var visit func(b *cfg.Block, held map[string]bool)
	visit = func(b *cfg.Block, held map[string]bool) {
		st := state{block: b.Index, held: joinKeys(held)}
		if seen[st] {
			return
		}
		seen[st] = true
		cur := copySet(held)
		for _, n := range b.Nodes {
			for _, ev := range lockEventsIn(pass, n) {
				switch ev.op {
				case "Lock":
					if len(cur) > 0 && !reported[ev.call] {
						reported[ev.call] = true
						pass.Reportf(ev.call.Pos(),
							"nested VM-lock acquisition: %s.mu taken while a Shim.mu is held; VM locks never nest",
							ev.owner)
					}
					if !ev.deferred {
						cur[ev.owner] = true
					}
				case "Unlock":
					if !ev.deferred {
						delete(cur, ev.owner)
					} else {
						// Deferred unlock releases at function exit;
						// within the function body the lock stays held,
						// so keep it in the set.
					}
				}
			}
		}
		for _, s := range b.Succs {
			visit(s, cur)
		}
	}
	visit(g.Blocks[0], map[string]bool{})
}

// lockEventsIn extracts VM-lock operations from one CFG node, skipping
// nested function literals (their bodies run on another goroutine or at
// another time and have their own CFGs).
func lockEventsIn(pass *analysis.Pass, n ast.Node) []lockEvent {
	var evs []lockEvent
	isDefer := false
	if d, ok := n.(*ast.DeferStmt); ok {
		isDefer = true
		n = d.Call
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if owner, op, ok := matchutil.MutexField(pass.TypesInfo, call, ownerType, fieldName); ok {
			evs = append(evs, lockEvent{call: call, owner: exprString(owner), op: op, deferred: isDefer})
		}
		return true
	})
	return evs
}

func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprString(v.X)
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	}
	return "?"
}

func joinKeys(m map[string]bool) string {
	// Deterministic small-set join; insertion order does not matter for
	// correctness of memoization, only for key equality, so sort.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := ""
	for _, k := range keys {
		out += k + "|"
	}
	return out
}

func copySet(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
