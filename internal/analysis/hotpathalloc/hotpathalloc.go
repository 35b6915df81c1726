// Package hotpathalloc enforces the zero-allocation hot-path contract from
// PR 2/3: AppendEncode/DecodeInto and the bitio/fixedpoint kernels they call
// must not allocate in steady state (the AllocsPerRun tests pin them at
// 0 allocs/op; this analyzer keeps refactors from drifting toward the limit).
//
// Functions annotated //age:hotpath are checked for allocation-causing
// constructs: make/new, slice/map/channel composite literals, string
// conversions and concatenation, fmt/errors formatting calls, appends onto
// locally declared slices with no preallocated capacity, and variable-
// capturing closures. Constructs inside blocks that terminate in return or
// panic are exempt — error paths may allocate, the steady-state success path
// may not. A finding that is genuinely amortized (e.g. an append that reuses
// caller capacity) is silenced with //age:allow hotpathalloc and a reason.
//
// The analyzer also *requires* the annotation on the known hot entry points
// (Config.Require), so removing a comment cannot opt a kernel out of the
// check.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Config parameterizes the analyzer.
type Config struct {
	// Require maps package import paths to function/method names that must
	// carry the //age:hotpath annotation. A plain name matches every
	// function and method so named; "Type.Method" matches only that
	// method.
	Require map[string][]string
}

// DefaultConfig returns the repo's hot-path inventory: every encoder's
// append/into entry points, the value packer and unpacker they share and
// the unpacker's dequantize loop, the bit-packing and quantization kernels on
// their call paths, the reconstruction kernels the projection scores each
// delivered frame with, the cipher and staging kernels on the server's
// frame path, the GRU step under the Skip RNN's sampling walk, the
// threshold policies' replayed walks, and the entropy/MI kernel under the
// NMI permutation test.
func DefaultConfig() Config {
	return Config{
		Require: map[string][]string{
			"repro/internal/core": {
				"AppendEncode", "DecodeInto", "packGroups", "unpackGroups", "dequantize",
			},
			"repro/internal/bitio": {
				"WriteBits", "ReadBits", "Align", "PadTo", "Reset", "ResetTo",
				// Word-at-a-time kernels and the streaming run accumulator.
				"WriteBits64", "ReadBits64", "WriteRun", "ReadRun",
				"StartRun", "Add", "Flush",
			},
			"repro/internal/fixedpoint": {
				"FromFloat", "FromBits", "Bits", "Float", "NonFracBitsFor",
				// Precomputed quantizer/dequantizer kernels.
				"Raw",
			},
			// The projection's per-record scoring kernels.
			"repro/internal/reconstruct": {"LinearMAE", "LinearMAEStdDev", "SequenceStdDev"},
			// The server's per-frame open, the staged copy of each decoded
			// batch, and the projection workers' run reads, which append
			// into the caller's buffer.
			"repro/internal/chacha":  {"Reset", "XORKeyStream"},
			"repro/internal/staging": {"carve", "Log.Read"},
			// The GRU inference step every Skip RNN decision loop runs, and
			// the blocked matrix-vector kernel under it.
			"repro/internal/rnn": {"GRU.Step", "Mat.MulVec"},
			// The threshold policies' decision loops, replayed at every
			// bisection midpoint of a budget fit.
			"repro/internal/policy": {"Linear.replay", "Deviation.replay"},
			// The information kernel every permutation of an NMI
			// permutation test re-counts and re-sums.
			"repro/internal/stats": {"entropy", "table.mutualInfo", "table.nmi", "pairs.count", "countingSort"},
		},
	}
}

// Analyzer is the default instance used by agevet.
var Analyzer = New(DefaultConfig())

// New builds the analyzer for cfg.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:         "hotpathalloc",
		Doc:          "flags allocation-causing constructs in //age:hotpath functions",
		IncludeTests: false,
		Run:          func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

func run(pass *analysis.Pass, cfg Config) error {
	required := map[string]bool{}
	for _, name := range cfg.Require[pass.Pkg.Path()] {
		required[name] = true
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			marked := pass.Dirs.FuncMarked(fn, analysis.MarkHotpath)
			if (required[fn.Name.Name] || required[methodName(fn)]) && !marked {
				pass.Reportf(fn.Name.Pos(),
					"%s is a known hot path and must be annotated //age:hotpath", fn.Name.Name)
			}
			if marked && fn.Body != nil {
				checkBody(pass, fn)
			}
		}
	}
	return nil
}

// methodName returns "Type.Method" for a method declaration and "" for a
// function.
func methodName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return ""
}

// checkBody walks fn's statements, skipping cold (error-path) blocks.
func checkBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	var walkStmt func(s ast.Stmt)
	var walkExpr func(e ast.Expr)

	walkExpr = func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, fn, n)
			case *ast.CompositeLit:
				checkCompositeLit(pass, n)
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isNonConstString(pass, n) {
					pass.Reportf(n.OpPos, "string concatenation allocates in //age:hotpath function %s", fn.Name.Name)
				}
			case *ast.FuncLit:
				if captures(pass, n) {
					pass.Reportf(n.Pos(), "variable-capturing closure allocates in //age:hotpath function %s", fn.Name.Name)
				}
				return false // the closure body runs elsewhere
			}
			return true
		})
	}

	walkStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case nil:
		case *ast.BlockStmt:
			for _, st := range s.List {
				walkStmt(st)
			}
		case *ast.IfStmt:
			walkStmt(s.Init)
			walkExpr(s.Cond)
			if !isCold(s.Body) {
				walkStmt(s.Body)
			}
			if s.Else != nil {
				if blk, ok := s.Else.(*ast.BlockStmt); ok && isCold(blk) {
					break
				}
				walkStmt(s.Else)
			}
		case *ast.SwitchStmt:
			walkStmt(s.Init)
			walkExpr(s.Tag)
			for _, cc := range s.Body.List {
				c := cc.(*ast.CaseClause)
				cold := len(c.Body) > 0 && terminates(c.Body[len(c.Body)-1])
				for _, e := range c.List {
					walkExpr(e)
				}
				if !cold {
					for _, st := range c.Body {
						walkStmt(st)
					}
				}
			}
		case *ast.TypeSwitchStmt:
			walkStmt(s.Init)
			walkStmt(s.Assign)
			for _, cc := range s.Body.List {
				c := cc.(*ast.CaseClause)
				cold := len(c.Body) > 0 && terminates(c.Body[len(c.Body)-1])
				if !cold {
					for _, st := range c.Body {
						walkStmt(st)
					}
				}
			}
		case *ast.ForStmt:
			walkStmt(s.Init)
			walkExpr(s.Cond)
			walkStmt(s.Post)
			walkStmt(s.Body)
		case *ast.RangeStmt:
			walkExpr(s.X)
			walkStmt(s.Body)
		case *ast.ReturnStmt:
			// Return expressions on the success path still run every call.
			for _, e := range s.Results {
				walkExpr(e)
			}
		case *ast.AssignStmt:
			for _, e := range s.Rhs {
				walkExpr(e)
			}
			checkAppendTargets(pass, fn, s)
		case *ast.ExprStmt:
			walkExpr(s.X)
		case *ast.DeferStmt:
			walkExpr(s.Call.Fun)
			for _, a := range s.Call.Args {
				walkExpr(a)
			}
		case *ast.GoStmt:
			pass.Reportf(s.Pos(), "go statement allocates in //age:hotpath function %s", fn.Name.Name)
		case *ast.SendStmt:
			walkExpr(s.Chan)
			walkExpr(s.Value)
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, sp := range gd.Specs {
					if vs, ok := sp.(*ast.ValueSpec); ok {
						for _, e := range vs.Values {
							walkExpr(e)
						}
					}
				}
			}
		case *ast.LabeledStmt:
			walkStmt(s.Stmt)
		case *ast.SelectStmt:
			for _, cc := range s.Body.List {
				c := cc.(*ast.CommClause)
				walkStmt(c.Comm)
				for _, st := range c.Body {
					walkStmt(st)
				}
			}
		case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
		default:
		}
	}
	walkStmt(fn.Body)
}

// isCold reports whether blk is an error path: its final statement leaves the
// function (return or panic), so it does not run in steady state.
func isCold(blk *ast.BlockStmt) bool {
	if len(blk.List) == 0 {
		return false
	}
	return terminates(blk.List[len(blk.List)-1])
}

func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func checkCall(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make", "new":
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				pass.Reportf(call.Pos(), "%s allocates in //age:hotpath function %s", id.Name, fn.Name.Name)
			}
			return
		}
	}
	switch name := analysis.CalleeName(pass.Info, call); name {
	case "fmt.Sprintf", "fmt.Sprint", "fmt.Sprintln", "fmt.Errorf",
		"fmt.Printf", "fmt.Println", "fmt.Print", "errors.New":
		pass.Reportf(call.Pos(), "%s allocates in //age:hotpath function %s", name, fn.Name.Name)
	}
	// Conversions that copy: []byte(s), string(b), []rune(s).
	if conv, ok := convTarget(pass, call); ok {
		pass.Reportf(call.Pos(), "%s conversion allocates in //age:hotpath function %s", conv, fn.Name.Name)
	}
}

// convTarget detects string<->slice conversions, which copy their operand.
func convTarget(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return "", false
	}
	to := tv.Type.Underlying()
	from, ok := pass.Info.Types[call.Args[0]]
	if !ok {
		return "", false
	}
	fromT := from.Type.Underlying()
	isString := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	if isString(fromT) && isByteOrRuneSlice(to) {
		return "string-to-slice", true
	}
	if isByteOrRuneSlice(fromT) && isString(to) {
		return "slice-to-string", true
	}
	return "", false
}

func checkCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(), "slice literal allocates; preallocate outside the hot path")
	case *types.Map:
		pass.Reportf(lit.Pos(), "map literal allocates; preallocate outside the hot path")
	}
}

// checkAppendTargets flags s = append(s, ...) when s is a local slice whose
// declaration carries no capacity (nil or literal), so every growth step
// allocates. Slices arriving via parameters, fields, or calls (scratch pools,
// slices.Grow) are the caller's business and stay unflagged.
func checkAppendTargets(pass *analysis.Pass, fn *ast.FuncDecl, s *ast.AssignStmt) {
	for _, rhs := range s.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
			continue
		}
		target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			continue
		}
		obj, ok := pass.Info.Uses[target].(*types.Var)
		if !ok || obj.Parent() == nil || obj.Parent() == pass.Pkg.Scope() {
			continue // package-level or field: not a local
		}
		if declaredWithoutCapacity(pass, fn, obj) {
			pass.Reportf(call.Pos(),
				"append to %s, declared without capacity, allocates on growth in //age:hotpath function %s",
				target.Name, fn.Name.Name)
		}
	}
}

// declaredWithoutCapacity reports whether obj's declaration inside fn is a
// bare var, a nil assignment, or a slice literal — storage with no headroom.
func declaredWithoutCapacity(pass *analysis.Pass, fn *ast.FuncDecl, obj *types.Var) bool {
	bad := false
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pass.Info.Defs[id] != obj || i >= len(n.Rhs) {
					continue
				}
				switch rhs := ast.Unparen(n.Rhs[i]).(type) {
				case *ast.CompositeLit:
					bad = true
				case *ast.Ident:
					if rhs.Name == "nil" {
						bad = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.Info.Defs[name] != obj {
					continue
				}
				if len(n.Values) == 0 {
					bad = true // var s []T
				} else if i < len(n.Values) {
					if lit, ok := ast.Unparen(n.Values[i]).(*ast.CompositeLit); ok && lit != nil {
						bad = true
					}
				}
			}
		}
		return true
	})
	return bad
}

// captures reports whether lit references a variable declared outside itself
// (but not at package scope). Such closures escape to the heap; non-capturing
// literals — slices.SortFunc comparators over their own parameters — do not
// and stay unflagged.
func captures(pass *analysis.Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.Parent() == nil {
			return true
		}
		if v.Parent() == pass.Pkg.Scope() || (v.Pkg() != nil && v.Parent() == v.Pkg().Scope()) {
			return true // package-level: no capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = true
		}
		return !found
	})
	return found
}

// isNonConstString reports whether the ADD expression concatenates strings
// where at least one operand is not a compile-time constant.
func isNonConstString(pass *analysis.Pass, b *ast.BinaryExpr) bool {
	tv, ok := pass.Info.Types[b]
	if !ok {
		return false
	}
	bt, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || bt.Info()&types.IsString == 0 {
		return false
	}
	return tv.Value == nil // constant-folded concatenations don't allocate per call
}
