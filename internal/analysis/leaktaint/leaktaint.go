// Package leaktaint statically pins the PR-7 side-channel defense: no
// secret may shape an observable channel feature. The paper's attack (and
// the repo's TimingTap reproduction) classifies events from exactly two
// observables — message sizes and send timing — and PR 7 closed both
// dynamically: payload sizes are fixed by the sealer, and the pacer's
// release schedule is load-independent with sealed dummies covering empty
// slots. Nothing *static* kept a refactor from reopening the channel, e.g.
// branching on a sample label before a send or letting a payload length
// vary with the event class outside the sealer. This analyzer is that
// static check.
//
// # Sources
//
// Secret values are declared, not inferred:
//
//   - any declaration (struct field, interface method, package-level var,
//     function) tagged //age:secret — sample labels, event classes, decoded
//     payload contents, and data-driven generation gaps are tagged in
//     internal/core, internal/simulator, internal/attack, internal/staging,
//     and internal/ingest;
//   - results of ingest.MarkReal / ingest.MarkDummy / ingest.Unmark — the
//     real/dummy decision is the pacer's secret and must only ever exist
//     inside a sealed payload.
//
// Secret declarations register globally as units load (dependencies load
// first, so a core annotation is visible when ingest is analyzed). Taint
// propagates intra-procedurally through assignments, ranges, and value
// flow, with one-hop call summaries inside a package: a function returning
// a secret-derived value taints its call sites, and passing a tainted
// argument to a parameter that reaches a sink is reported at the call.
//
// # Sinks
//
// Inside transport scope — Config.Packages plus //age:transport files and
// functions — the analyzer reports a secret reaching:
//
//   - time.Sleep / time.After / time.NewTimer / time.Tick arguments and
//     Set*Deadline arguments (schedule shaping);
//   - Write on a net.Conn-shaped value and seccomm.AppendFrame payloads
//     (size shaping: an unsealed secret-derived buffer's length is the
//     paper's size channel);
//   - metric names (the string passed to a Counter method, such as
//     metrics.(*Registry).Counter) and fmt/log output — operational
//     surfaces an observer may scrape;
//   - any if/switch/for condition — secret-dependent control flow in
//     transport code modulates everything downstream of it.
//
// # Sanitizers
//
// A value that passed through a sealer (any callee whose name begins with
// "Seal") is clean: sealed bytes are the defense's output and carry a
// uniform size. A reviewed, deliberate flow is annotated //age:declassify
// with a reason — it stops both reporting and propagation on its line —
// and a single finding can be suppressed with //age:allow leaktaint.
package leaktaint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"

	"repro/internal/analysis"
)

// Config parameterizes the analyzer.
type Config struct {
	// Packages lists import paths that are transport scope in full: sinks
	// are enforced in them (plus any //age:transport file or function).
	Packages []string
	// SecretCalls are function names whose results are secret wherever
	// they appear (the pacer's marker helpers).
	SecretCalls []string
	// SanitizerPrefixes are callee-name prefixes that launder taint (the
	// sealer family).
	SanitizerPrefixes []string
}

// DefaultConfig scopes sinks to the packages that shape wire traffic. The
// simulator does socket I/O too but is the *harness* — it legitimately
// correlates labels with observations to mount the attack — so it
// contributes sources, not sinks.
func DefaultConfig() Config {
	return Config{
		Packages: []string{
			"repro/internal/seccomm",
			"repro/internal/ingest",
			"repro/internal/cluster",
		},
		SecretCalls:       []string{"MarkReal", "MarkDummy", "Unmark"},
		SanitizerPrefixes: []string{"Seal"},
	}
}

// Analyzer is the default instance used by agevet.
var Analyzer = New(DefaultConfig())

// New builds the analyzer for cfg.
func New(cfg Config) *analysis.Analyzer {
	lt := &leaktaint{cfg: cfg, registries: map[*token.FileSet]*registry{}}
	return &analysis.Analyzer{
		Name:         "leaktaint",
		Doc:          "forbids secret-derived values from reaching timing, size, metrics-label, or log sinks in transport code outside the sealer",
		IncludeTests: false,
		Run:          lt.run,
	}
}

// registry accumulates secret declaration keys across the units of one
// load (units share a FileSet, and `go list -deps` orders dependencies
// first, so producers register before consumers analyze).
type registry struct {
	keys map[string]bool
}

type leaktaint struct {
	cfg Config

	mu         sync.Mutex
	registries map[*token.FileSet]*registry
}

func (lt *leaktaint) registryFor(fset *token.FileSet) *registry {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	r := lt.registries[fset]
	if r == nil {
		r = &registry{keys: map[string]bool{}}
		lt.registries[fset] = r
	}
	return r
}

func (lt *leaktaint) run(pass *analysis.Pass) error {
	reg := lt.registryFor(pass.Fset)
	lt.register(pass, reg)

	wholePkg := false
	for _, p := range lt.cfg.Packages {
		if pass.Pkg.Path() == p {
			wholePkg = true
		}
	}

	// One-hop call summaries for this unit's functions.
	sums := lt.summarize(pass, reg)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			inScope := wholePkg || pass.Dirs.ScopeMarked(file, fn.Pos(), analysis.MarkTransport)
			if !inScope {
				continue
			}
			t := lt.newTaint(pass, reg, sums)
			t.fixpoint(fn.Body)
			t.report(fn)
		}
	}
	return nil
}

// register indexes this unit's //age:secret declarations into the
// load-wide registry, keyed "pkg.Name", "pkg.Type.Field", or
// "pkg.Type.Method" so uses in downstream packages resolve.
func (lt *leaktaint) register(pass *analysis.Pass, reg *registry) {
	pkg := pass.Pkg.Path()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if pass.Dirs.FuncMarked(d, analysis.MarkSecret) || pass.Dirs.LineMarked(d.Pos(), analysis.MarkSecret) {
					reg.keys[funcDeclKey(pass, pkg, d)] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						if pass.Dirs.LineMarked(s.Pos(), analysis.MarkSecret) {
							for _, name := range s.Names {
								reg.keys[pkg+"."+name.Name] = true
							}
						}
					case *ast.TypeSpec:
						lt.registerType(pass, reg, pkg, s)
					}
				}
			}
		}
	}
}

func (lt *leaktaint) registerType(pass *analysis.Pass, reg *registry, pkg string, ts *ast.TypeSpec) {
	switch t := ts.Type.(type) {
	case *ast.StructType:
		for _, f := range t.Fields.List {
			if !pass.Dirs.LineMarked(f.Pos(), analysis.MarkSecret) {
				continue
			}
			for _, name := range f.Names {
				reg.keys[pkg+"."+ts.Name.Name+"."+name.Name] = true
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			if !pass.Dirs.LineMarked(m.Pos(), analysis.MarkSecret) {
				continue
			}
			for _, name := range m.Names {
				reg.keys[pkg+"."+ts.Name.Name+"."+name.Name] = true
			}
		}
	}
}

func funcDeclKey(pass *analysis.Pass, pkg string, d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) > 0 {
		t := d.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return pkg + "." + id.Name + "." + d.Name.Name
		}
	}
	return pkg + "." + d.Name.Name
}

// summary records what one hop of a call needs to know about a function.
type summary struct {
	decl *ast.FuncDecl
	// returnsSecret marks functions whose results derive from a source.
	returnsSecret bool
	// sinkParams maps parameter index -> sink description for parameters
	// that reach a sink inside the body.
	sinkParams map[int]string
}

// summarize computes the unit's one-hop call summaries. Summaries are
// depth-1 by design: they consult sources and built-in sinks only, never
// other summaries, so there is no fixpoint across functions to chase.
func (lt *leaktaint) summarize(pass *analysis.Pass, reg *registry) map[types.Object]*summary {
	sums := map[types.Object]*summary{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fn.Name]
			if obj == nil {
				continue
			}
			s := &summary{decl: fn, sinkParams: map[int]string{}}

			// Does any return value derive from a source?
			t := lt.newTaint(pass, reg, nil)
			t.fixpoint(fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				ret, isRet := n.(*ast.ReturnStmt)
				if !isRet {
					return true
				}
				for _, r := range ret.Results {
					if t.tainted(r) {
						s.returnsSecret = true
					}
				}
				return true
			})

			// Which parameters reach a sink?
			params := paramObjects(pass, fn)
			for i, p := range params {
				if p == nil {
					continue
				}
				pt := lt.newTaint(pass, reg, nil)
				pt.seed(p)
				pt.fixpoint(fn.Body)
				if what := pt.firstSink(fn); what != "" {
					s.sinkParams[i] = what
				}
			}
			sums[obj] = s
		}
	}
	return sums
}

func paramObjects(pass *analysis.Pass, fn *ast.FuncDecl) []types.Object {
	var objs []types.Object
	for _, f := range fn.Type.Params.List {
		for _, name := range f.Names {
			objs = append(objs, pass.Info.Defs[name])
		}
		if len(f.Names) == 0 {
			objs = append(objs, nil) // unnamed parameter cannot be used
		}
	}
	return objs
}

// taint is one function's intra-procedural taint state.
type taint struct {
	lt   *leaktaint
	pass *analysis.Pass
	reg  *registry
	sums map[types.Object]*summary
	set  map[types.Object]bool
}

func (lt *leaktaint) newTaint(pass *analysis.Pass, reg *registry, sums map[types.Object]*summary) *taint {
	return &taint{lt: lt, pass: pass, reg: reg, sums: sums, set: map[types.Object]bool{}}
}

func (t *taint) seed(obj types.Object) { t.set[obj] = true }

// fixpoint propagates taint through the body's assignments, short variable
// declarations, and range statements until the tainted-object set stops
// growing. Function literals participate: they capture and mutate the
// enclosing function's variables.
func (t *taint) fixpoint(body *ast.BlockStmt) {
	for {
		before := len(t.set)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if t.pass.Dirs.Declassified(n.Pos()) {
					return true
				}
				t.assign(n.Lhs, n.Rhs)
			case *ast.RangeStmt:
				if t.pass.Dirs.Declassified(n.Pos()) {
					return true
				}
				if t.tainted(n.X) {
					t.taintLHS(n.Key)
					t.taintLHS(n.Value)
				}
			case *ast.ValueSpec:
				if t.pass.Dirs.Declassified(n.Pos()) {
					return true
				}
				for i, name := range n.Names {
					switch {
					case len(n.Values) == len(n.Names):
						if t.tainted(n.Values[i]) {
							t.taintLHS(name)
						}
					case len(n.Values) == 1:
						if t.tainted(n.Values[0]) {
							t.taintLHS(name)
						}
					}
				}
			}
			return true
		})
		if len(t.set) == before {
			return
		}
	}
}

func (t *taint) assign(lhs, rhs []ast.Expr) {
	switch {
	case len(lhs) == len(rhs):
		for i := range lhs {
			if t.tainted(rhs[i]) {
				t.taintLHS(lhs[i])
			}
		}
	case len(rhs) == 1: // multi-value call or comma-ok
		if t.tainted(rhs[0]) {
			for _, l := range lhs {
				t.taintLHS(l)
			}
		}
	}
}

// taintLHS taints the root object of an assignment target: a plain ident
// directly, a field/index write through its base (writing a secret into a
// struct or map taints the container, conservatively).
func (t *taint) taintLHS(e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		if obj := t.objOf(e); obj != nil {
			t.set[obj] = true
		}
	case *ast.SelectorExpr:
		t.taintLHS(e.X)
	case *ast.IndexExpr:
		t.taintLHS(e.X)
	case *ast.StarExpr:
		t.taintLHS(e.X)
	}
}

func (t *taint) objOf(id *ast.Ident) types.Object {
	if obj := t.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return t.pass.Info.Defs[id]
}

// tainted reports whether an expression derives from a secret. The walk is
// structural so sanitizer calls can cut whole subtrees: Seal(secret) is
// clean even though a secret ident sits inside it.
func (t *taint) tainted(e ast.Expr) bool {
	switch e := e.(type) {
	case nil:
		return false
	case *ast.Ident:
		obj := t.objOf(e)
		if obj == nil {
			return false
		}
		return t.set[obj] || t.secretObj(obj)
	case *ast.SelectorExpr:
		if sel, ok := t.pass.Info.Selections[e]; ok {
			if t.reg.keys[selectionKey(sel)] {
				return true
			}
		} else if obj := t.pass.Info.Uses[e.Sel]; obj != nil && t.secretObj(obj) {
			// Package-qualified reference (pkg.Var).
			return true
		}
		return t.tainted(e.X)
	case *ast.CallExpr:
		return t.callTainted(e)
	case *ast.BinaryExpr:
		return t.tainted(e.X) || t.tainted(e.Y)
	case *ast.UnaryExpr:
		return t.tainted(e.X)
	case *ast.ParenExpr:
		return t.tainted(e.X)
	case *ast.StarExpr:
		return t.tainted(e.X)
	case *ast.IndexExpr:
		return t.tainted(e.X) || t.tainted(e.Index)
	case *ast.SliceExpr:
		return t.tainted(e.X) || t.tainted(e.Low) || t.tainted(e.High) || t.tainted(e.Max)
	case *ast.TypeAssertExpr:
		return t.tainted(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if t.tainted(kv.Value) {
					return true
				}
				continue
			}
			if t.tainted(elt) {
				return true
			}
		}
		return false
	case *ast.KeyValueExpr:
		return t.tainted(e.Value)
	}
	return false
}

// secretObj reports whether obj's declaration is tagged //age:secret —
// directly (same unit, line mark at its position) or via the load-wide
// registry (package-level declarations from dependency units).
func (t *taint) secretObj(obj types.Object) bool {
	if t.pass.Dirs.LineMarked(obj.Pos(), analysis.MarkSecret) {
		return true
	}
	if pkg := obj.Pkg(); pkg != nil && obj.Parent() == pkg.Scope() {
		if t.reg.keys[pkg.Path()+"."+obj.Name()] {
			return true
		}
	}
	if fn, ok := obj.(*types.Func); ok {
		return t.reg.keys[funcKey(fn)]
	}
	return false
}

func (t *taint) callTainted(call *ast.CallExpr) bool {
	last := calleeLastName(t.pass, call)
	for _, p := range t.lt.cfg.SanitizerPrefixes {
		if strings.HasPrefix(last, p) {
			return false
		}
	}
	for _, n := range t.lt.cfg.SecretCalls {
		if last == n {
			return true
		}
	}
	if fn := calleeFunc(t.pass, call); fn != nil {
		if t.reg.keys[funcKey(fn)] {
			return true
		}
		if t.sums != nil {
			if s, ok := t.sums[types.Object(fn)]; ok && s.returnsSecret {
				return true
			}
		}
	}
	// Method on a tainted receiver, or any tainted argument, taints the
	// result (conservative pass-through: len, append, Sub, After, ...).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := t.pass.Info.Selections[sel]; isSel && t.tainted(sel.X) {
			return true
		}
	}
	for _, arg := range call.Args {
		if t.tainted(arg) {
			return true
		}
	}
	return false
}

// report walks the function flagging sinks fed by taint and tainted branch
// conditions.
func (t *taint) report(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			t.checkCall(n, fn, true)
		case *ast.IfStmt:
			t.checkCond(n.Cond, "if", fn)
		case *ast.SwitchStmt:
			t.checkCond(n.Tag, "switch", fn)
		case *ast.ForStmt:
			t.checkCond(n.Cond, "for", fn)
		}
		return true
	})
}

// firstSink reports the first built-in sink fed by taint, or "" — the
// summary probe used for parameter sink detection.
func (t *taint) firstSink(fn *ast.FuncDecl) string {
	found := ""
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			found = t.sinkHit(call, false)
		}
		return true
	})
	return found
}

func (t *taint) checkCond(cond ast.Expr, what string, fn *ast.FuncDecl) {
	if cond == nil || !t.tainted(cond) {
		return
	}
	if t.pass.Dirs.Declassified(cond.Pos()) {
		return
	}
	t.pass.Reportf(cond.Pos(),
		"secret-dependent %s condition in transport code (%s): control flow here shapes observable wire behavior; seal the decision, hoist it out of transport scope, or annotate //age:declassify or //age:allow leaktaint with a reason",
		what, fn.Name.Name)
}

func (t *taint) checkCall(call *ast.CallExpr, fn *ast.FuncDecl, report bool) {
	if t.pass.Dirs.Declassified(call.Pos()) {
		return
	}
	if what := t.sinkHit(call, true); what != "" {
		t.pass.Reportf(call.Pos(),
			"secret reaches %s in %s without passing through the sealer; route it through seccomm.Seal* or annotate //age:declassify or //age:allow leaktaint with a reason",
			what, fn.Name.Name)
	}
}

// sinkHit reports a sink description when call is a sink fed by a tainted
// argument. useSummaries extends detection one hop into same-unit callees.
func (t *taint) sinkHit(call *ast.CallExpr, useSummaries bool) string {
	last := calleeLastName(t.pass, call)
	full := analysis.CalleeName(t.pass.Info, call)

	argTainted := func(i int) bool {
		return i < len(call.Args) && t.tainted(call.Args[i])
	}
	anyTainted := func() bool {
		for _, a := range call.Args {
			if t.tainted(a) {
				return true
			}
		}
		return false
	}

	switch full {
	case "time.Sleep", "time.After", "time.NewTimer", "time.Tick":
		if argTainted(0) {
			return full + " (release timing)"
		}
	}
	if strings.HasPrefix(full, "fmt.Print") || strings.HasPrefix(full, "fmt.Fprint") ||
		strings.HasPrefix(full, "log.Print") || strings.HasPrefix(full, "log.Fatal") || strings.HasPrefix(full, "log.Panic") {
		if anyTainted() {
			return full + " (log output)"
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		if strings.HasPrefix(name, "Set") && strings.HasSuffix(name, "Deadline") && anyTainted() {
			return name + " (deadline arithmetic)"
		}
		if name == "Write" {
			if tv, ok := t.pass.Info.Types[sel.X]; ok && analysis.IsConnLike(tv.Type) && anyTainted() {
				return "a net.Conn write (payload size/content)"
			}
		}
		if name == "Counter" && anyTainted() {
			if tv, ok := t.pass.Info.Types[sel.X]; ok && isSeriesLike(tv.Type) {
				return "a metrics series label"
			}
		}
	}
	if last == "AppendFrame" && anyTainted() {
		return "a wire frame payload (AppendFrame)"
	}
	if useSummaries && t.sums != nil {
		if fn := calleeFunc(t.pass, call); fn != nil {
			if s, ok := t.sums[types.Object(fn)]; ok {
				for i, what := range s.sinkParams {
					if argTainted(i) {
						return what + " via " + fn.Name()
					}
				}
			}
		}
	}
	return ""
}

// isSeriesLike matches a metric-name lookup: a Counter method taking a
// string name, the shape of metrics.(*Registry).Counter. Shape matching keeps
// testdata stdlib-only.
func isSeriesLike(t types.Type) bool {
	ms := types.NewMethodSet(t)
	if _, ok := t.(*types.Pointer); !ok {
		ms = types.NewMethodSet(types.NewPointer(t))
	}
	sel := ms.Lookup(nil, "Counter")
	if sel == nil {
		return false
	}
	sig, ok := sel.Obj().Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return false
	}
	basic, ok := sig.Params().At(0).Type().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.String
}

func calleeLastName(pass *analysis.Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcKey renders a *types.Func as its registry key.
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			tn := named.Obj()
			if tn.Pkg() != nil {
				return tn.Pkg().Path() + "." + tn.Name() + "." + fn.Name()
			}
		}
		return ""
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return ""
}

// selectionKey renders a field/method selection as its registry key,
// resolving through the receiver's named type.
func selectionKey(sel *types.Selection) string {
	recv := sel.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return ""
	}
	return tn.Pkg().Path() + "." + tn.Name() + "." + sel.Obj().Name()
}
