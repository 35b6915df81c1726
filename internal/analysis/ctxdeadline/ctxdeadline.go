// Package ctxdeadline guards the PR-1 transport-hardening rule: every read or
// write on a network connection must be bounded by a deadline. The paper's
// deployments (FarmBeats fields, ZebraNet herds, §2.1/§3.3) make "the peer
// went quiet" a routine event; an undeadlined conn.Read turns it into a hung
// worker.
//
// Inside transport scope — the packages in Config.Packages plus any file or
// function marked //age:transport — the analyzer flags Read/Write method
// calls on net.Conn-shaped values and io.ReadFull/ReadAtLeast/Copy calls fed
// a conn, unless the enclosing function also calls a Set*Deadline method
// (the seccomm.ReadFullDeadline pattern: arm the deadline, do the I/O,
// disarm). Functions that legitimately defer deadline management to their
// caller carry //age:allow ctxdeadline with a reason.
package ctxdeadline

import (
	"go/ast"
	"strings"

	"repro/internal/analysis"
)

// Config parameterizes the analyzer.
type Config struct {
	// Packages lists import paths that are transport scope in full.
	Packages []string
}

// DefaultConfig covers the frame transport, the ingest server/client, the
// fleet simulator (which the socket path runs as a one-sensor fleet), and
// the cluster gateway's accept and handoff path.
func DefaultConfig() Config {
	return Config{Packages: []string{
		"repro/internal/seccomm",
		"repro/internal/ingest",
		"repro/internal/simulator",
		"repro/internal/cluster",
	}}
}

// Analyzer is the default instance used by agevet.
var Analyzer = New(DefaultConfig())

// New builds the analyzer for cfg.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:         "ctxdeadline",
		Doc:          "requires a Set*Deadline guard around net.Conn reads and writes in transport code",
		IncludeTests: false,
		Run:          func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

func run(pass *analysis.Pass, cfg Config) error {
	wholePkg := false
	for _, p := range cfg.Packages {
		if pass.Pkg.Path() == p {
			wholePkg = true
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !wholePkg && !pass.Dirs.ScopeMarked(file, fn.Pos(), analysis.MarkTransport) {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	// One pass to learn whether the function arms any deadline...
	hasGuard := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			name := sel.Sel.Name
			if strings.HasPrefix(name, "Set") && strings.HasSuffix(name, "Deadline") {
				hasGuard = true
				return false
			}
		}
		return true
	})
	if hasGuard {
		return
	}
	// ...and a second to flag unguarded conn I/O.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Read", "Write":
				if tv, ok := pass.Info.Types[sel.X]; ok && analysis.IsConnLike(tv.Type) {
					pass.Reportf(call.Pos(),
						"%s on a net.Conn with no Set*Deadline in %s; bound the I/O (seccomm.*Deadline helpers) or annotate //age:allow ctxdeadline with a reason",
						sel.Sel.Name, fn.Name.Name)
				}
			}
		}
		// Helpers that read/write a conn passed as io.Reader/io.Writer.
		switch analysis.CalleeName(pass.Info, call) {
		case "io.ReadFull", "io.ReadAtLeast", "io.Copy", "io.CopyN":
			for _, arg := range call.Args {
				if tv, ok := pass.Info.Types[arg]; ok && analysis.IsConnLike(tv.Type) {
					pass.Reportf(call.Pos(),
						"conn fed to unbounded io helper with no Set*Deadline in %s; bound the I/O or annotate //age:allow ctxdeadline with a reason",
						fn.Name.Name)
					break
				}
			}
		}
		return true
	})
}
