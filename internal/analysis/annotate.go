package analysis

// Directive grammar. Contracts are written in the source as //repro:
// comments and read here:
//
//	//repro:session-owned   (function doc) the function returns a
//	                        session-owned view, overwritten by the next
//	                        call on the same session — callers must not
//	                        retain it (sessionview enforces the rule,
//	                        and permits it to functions that carry the
//	                        same annotation themselves).
//	//repro:hotpath         (function doc) the body is a hot execution
//	                        loop and must not allocate (hotalloc).
//	//repro:step            (function doc) the function advances a
//	                        compiled machine; loops driving it must
//	                        reach a Ctx poll on every iteration path
//	                        (ctxpoll).
//	//repro:deterministic   (anywhere in a file) opts the whole package
//	                        into the engine-scope analyzers (determinism
//	                        and ctxpoll), as if it were listed in
//	                        EnginePackages.
//	//repro:ok <analyzer> <reason>
//	                        suppresses the named analyzer (or "all") on
//	                        this line and the next — the false-positive
//	                        escape hatch. The reason is required: a
//	                        suppression without a recorded why is how
//	                        contracts rot.
//
// Function annotations are indexed by symbol ("pkgpath.Name" or
// "pkgpath.Recv.Name") and, under the unitchecker driver, exported as
// vet facts so call-site analyzers see annotations from imported
// packages.

import (
	"bytes"
	"encoding/gob"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Annotations indexes //repro: function directives by symbol.
type Annotations struct {
	// Funcs maps a function symbol to its directive set.
	Funcs map[string]map[string]bool
}

// NewAnnotations returns an empty index.
func NewAnnotations() *Annotations {
	return &Annotations{Funcs: make(map[string]map[string]bool)}
}

// add records one directive for a symbol.
func (a *Annotations) add(symbol, directive string) {
	set := a.Funcs[symbol]
	if set == nil {
		set = make(map[string]bool)
		a.Funcs[symbol] = set
	}
	set[directive] = true
}

// Merge folds other (typically a dependency's exported facts) into a.
func (a *Annotations) Merge(other *Annotations) {
	if other == nil {
		return
	}
	for sym, set := range other.Funcs {
		for d := range set {
			a.add(sym, d)
		}
	}
}

// Has reports whether the symbol carries the directive.
func (a *Annotations) Has(symbol, directive string) bool {
	return a != nil && a.Funcs[symbol][directive]
}

// HasFunc reports whether the (possibly nil) function object carries
// the directive.
func (a *Annotations) HasFunc(fn *types.Func, directive string) bool {
	if fn == nil {
		return false
	}
	return a.Has(FuncSymbol(fn), directive)
}

// Encode serializes the index for a vet facts file.
func (a *Annotations) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(a.Funcs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeAnnotations reads a facts file produced by Encode. Empty input
// decodes to an empty index (a dependency with no directives writes no
// payload).
func DecodeAnnotations(data []byte) (*Annotations, error) {
	a := NewAnnotations()
	if len(data) == 0 {
		return a, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&a.Funcs); err != nil {
		return nil, err
	}
	return a, nil
}

// FuncSymbol names a function object the way the annotation index keys
// it: "pkgpath.Name" for package functions, "pkgpath.Recv.Name" for
// methods (pointer receivers and generic instantiations collapse onto
// the defining named type).
func FuncSymbol(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return fn.Name()
	}
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Origin().Obj()
			return obj.Pkg().Path() + "." + obj.Name() + "." + fn.Name()
		}
		// Interface or other unnamed receiver: fall back to the
		// package-qualified method name.
		return pkg.Path() + "." + fn.Name()
	}
	return pkg.Path() + "." + fn.Name()
}

const directivePrefix = "//repro:"

// directiveOf splits one comment into its directive name and argument
// tail, or returns "" when the comment is not a //repro: directive.
func directiveOf(c *ast.Comment) (name, args string) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return "", ""
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	name, args, _ = strings.Cut(rest, " ")
	if name == "" {
		return "", "" // "//repro: x" is not a directive; no space allowed
	}
	return name, strings.TrimSpace(args)
}

// scanResult is everything the directive scan of one package yields.
type scanResult struct {
	ann      *Annotations
	pragmas  map[string]bool                    // package-level directives (e.g. "deterministic")
	suppress map[string]map[int]map[string]bool // file -> line -> suppressed analyzers
}

// scanDirectives walks the package files (tests excluded) for //repro:
// directives: function annotations, package pragmas and per-line
// suppressions.
func scanDirectives(fset *token.FileSet, files []*ast.File, info *types.Info) scanResult {
	res := scanResult{
		ann:      NewAnnotations(),
		pragmas:  make(map[string]bool),
		suppress: make(map[string]map[int]map[string]bool),
	}
	for _, f := range files {
		fname := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(fname, "_test.go") {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, args := directiveOf(c)
				switch name {
				case "":
					continue
				case "deterministic":
					res.pragmas[name] = true
				case "ok":
					analyzer, _, _ := strings.Cut(args, " ")
					if analyzer == "" {
						continue
					}
					line := fset.Position(c.Pos()).Line
					lines := res.suppress[fname]
					if lines == nil {
						lines = make(map[int]map[string]bool)
						res.suppress[fname] = lines
					}
					set := lines[line]
					if set == nil {
						set = make(map[string]bool)
						lines[line] = set
					}
					set[analyzer] = true
				}
			}
		}
		addFuncDirectives := func(doc *ast.CommentGroup, ident *ast.Ident) {
			if doc == nil {
				return
			}
			for _, c := range doc.List {
				name, _ := directiveOf(c)
				switch name {
				case "session-owned", "hotpath", "step":
					if obj, ok := info.Defs[ident].(*types.Func); ok {
						res.ann.add(FuncSymbol(obj), name)
					}
				}
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				addFuncDirectives(d.Doc, d.Name)
			case *ast.GenDecl:
				// Interface methods carry directives too, so calls
				// through an interface (the fault-batch scheduler)
				// keep their contract.
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok || it.Methods == nil {
						continue
					}
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							addFuncDirectives(m.Doc, name)
						}
					}
				}
			}
		}
	}
	return res
}

// EnginePackages lists the package paths bound to the engine-scope
// contracts (determinism of every compiled path, cooperative Ctx
// polling) without needing a //repro:deterministic pragma: the compiled
// engines themselves, the shared option surface, and the paper flow
// that runs them side by side and merges their results. Shard results
// of a distributed campaign merge by construction only while these stay
// order-deterministic.
var EnginePackages = map[string]bool{
	"repro/internal/netlist":  true,
	"repro/internal/faultsim": true,
	"repro/internal/mutscore": true,
	"repro/internal/sim":      true,
	"repro/internal/tpg":      true,
	"repro/internal/atpg":     true,
	"repro/internal/engine":   true,
	"repro/internal/campaign": true,
	"repro/internal/core":     true,
}

// engineScoped reports whether the pass's package is bound to the
// engine-scope contracts, by path or by pragma.
func (p *Pass) engineScoped() bool {
	if EnginePackages[p.Pkg.Path()] {
		return true
	}
	return p.pragma("deterministic")
}

// pragma reports whether the package carries the given package-level
// directive. The index is built by the driver; a Pass constructed
// without one (defensive default) has no pragmas.
func (p *Pass) pragma(name string) bool {
	return p.pragmas[name]
}
