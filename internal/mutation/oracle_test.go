package mutation

import (
	"reflect"
	"testing"

	"repro/internal/hdl"
)

// The differential reference for Generate is the construction it
// replaced: walk the input with global statement and expression ordinals,
// then for each site clone the whole input, make the edit in place and
// check the whole clone in relaxed mode. It shares only the rules (which
// edits each operator makes at a node) with the production path, so it
// pins positions, path copying, the one-statement re-check and the
// stillborn verdicts.

// oracleSite is a site addressed by its global walk ordinals.
type oracleSite struct {
	edit
	stmtOrd int // ordinal in the statement walk, for statement edits
	exprOrd int // ordinal in the expression walk, for expression edits
	decl    int // for kindConstDecl
}

// oracleEnumerate lists the sites of c in walk order. The walker rewrites
// statement lists in place, so it walks a clone.
func oracleEnumerate(t testing.TB, c *hdl.Circuit, enabled map[Operator]bool) []oracleSite {
	sc, err := hdl.NewScope(c)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	r := newRules(c, sc, enabled)
	var sites []oracleSite
	w := &mutWalker{
		onStmt: func(s hdl.Stmt, ord int) stmtAction {
			r.stmtEdits(s, func(ed edit) {
				sites = append(sites, oracleSite{edit: ed, stmtOrd: ord, exprOrd: -1})
			})
			return keepStmt
		},
		onExpr: func(ep *hdl.Expr, ord int, inLabel bool) {
			r.exprEdits(*ep, inLabel, func(ed edit) {
				sites = append(sites, oracleSite{edit: ed, stmtOrd: -1, exprOrd: ord})
			})
		},
	}
	w.walk(c.Clone())
	r.constEdits(func(decl int, ed edit) {
		sites = append(sites, oracleSite{edit: ed, stmtOrd: -1, exprOrd: -1, decl: decl})
	})
	return sites
}

// oracleBuild applies one site to a fresh clone and re-checks the whole
// clone, returning nil for stillborn mutants.
func oracleBuild(c *hdl.Circuit, st oracleSite) *hdl.Circuit {
	mc := oracleApply(c, st)
	if mc == nil {
		return nil
	}
	if err := hdl.Check(mc, hdl.Relaxed); err != nil {
		return nil
	}
	return mc
}

// oracleApply clones c and performs the change st describes. It returns
// nil if the site was not found.
func oracleApply(c *hdl.Circuit, st oracleSite) *hdl.Circuit {
	mc := c.Clone()
	if st.kind == kindConstDecl {
		mc.Consts[st.decl].Value = st.newVal
		return mc
	}
	done := false
	w := &mutWalker{
		onStmt: func(s hdl.Stmt, ord int) stmtAction {
			if done || ord != st.stmtOrd {
				return keepStmt
			}
			switch st.kind {
			case kindDeleteStmt:
				done = true
				return deleteStmt
			case kindSwapIf:
				ifs := s.(*hdl.If)
				ifs.Then, ifs.Else = ifs.Else, ifs.Then
				done = true
			}
			return keepStmt
		},
		onExpr: func(ep *hdl.Expr, ord int, inLabel bool) {
			if done || ord != st.exprOrd {
				return
			}
			switch st.kind {
			case kindBinOp:
				(*ep).(*hdl.Binary).Op = st.newBinOp
			case kindWrapNot:
				ref := (*ep).(*hdl.Ref)
				*ep = &hdl.Unary{Op: hdl.OpNot, X: ref, Width: ref.Width, Pos: ref.Pos}
			case kindRefToRef:
				ref := (*ep).(*hdl.Ref)
				ref.Name = st.newName
			case kindRefToLit:
				ref := (*ep).(*hdl.Ref)
				*ep = &hdl.Lit{
					Val: st.newVal, Raw: st.newVal.Uint(), Sized: true,
					Width: st.newVal.Width(), Pos: ref.Pos,
				}
			case kindLitValue:
				lit := (*ep).(*hdl.Lit)
				lit.Val = st.newVal
				lit.Raw = st.newVal.Uint()
				lit.Sized = true
			}
			done = true
		},
	}
	w.walk(mc)
	if !done {
		return nil
	}
	return mc
}

// stmtAction tells the walker what to do with the statement just visited.
type stmtAction int

const (
	keepStmt stmtAction = iota
	deleteStmt
)

// mutWalker visits statements and expressions in exactly the order of
// hdl.Walk, assigning each a stable ordinal, and additionally exposes
// pointer access so visitors can rewrite expressions and delete statements
// in place.
type mutWalker struct {
	stmtN  int
	exprN  int
	onStmt func(s hdl.Stmt, ord int) stmtAction
	onExpr func(ep *hdl.Expr, ord int, inLabel bool)
}

func (w *mutWalker) walk(c *hdl.Circuit) {
	for _, b := range c.Blocks {
		b.Stmts = w.stmts(b.Stmts)
	}
}

func (w *mutWalker) stmts(ss []hdl.Stmt) []hdl.Stmt {
	out := ss[:0]
	for _, s := range ss {
		ord := w.stmtN
		w.stmtN++
		act := keepStmt
		if w.onStmt != nil {
			act = w.onStmt(s, ord)
		}
		w.children(s)
		if act != deleteStmt {
			out = append(out, s)
		}
	}
	return out
}

func (w *mutWalker) children(s hdl.Stmt) {
	switch s := s.(type) {
	case *hdl.Assign:
		if s.LHS.Index != nil {
			w.expr(&s.LHS.Index, false)
		}
		w.expr(&s.RHS, false)
	case *hdl.If:
		w.expr(&s.Cond, false)
		s.Then = w.stmts(s.Then)
		s.Else = w.stmts(s.Else)
	case *hdl.Case:
		w.expr(&s.Subject, false)
		for _, arm := range s.Arms {
			for i := range arm.Labels {
				w.expr(&arm.Labels[i], true)
			}
			arm.Body = w.stmts(arm.Body)
		}
		s.Default = w.stmts(s.Default)
	case *hdl.For:
		s.Body = w.stmts(s.Body)
	}
}

func (w *mutWalker) expr(ep *hdl.Expr, inLabel bool) {
	ord := w.exprN
	w.exprN++
	if w.onExpr != nil {
		w.onExpr(ep, ord, inLabel)
	}
	switch e := (*ep).(type) {
	case *hdl.Index:
		w.expr(&e.X, inLabel)
		w.expr(&e.I, inLabel)
	case *hdl.SliceExpr:
		w.expr(&e.X, inLabel)
	case *hdl.Unary:
		w.expr(&e.X, inLabel)
	case *hdl.Binary:
		w.expr(&e.X, inLabel)
		w.expr(&e.Y, inLabel)
	}
}

// oracleRef is the reference of checkGenerate that builds each site's
// mutant the oracle's way.
func oracleRef(c *hdl.Circuit) func(oracleSite) *hdl.Circuit {
	return func(w oracleSite) *hdl.Circuit { return oracleBuild(c, w) }
}

// checkGenerate runs Generate(c, ops...) and reports every difference
// from the oracle: the sites and their order, the stillborn verdicts, the
// surviving mutants (ID, Op, Desc and the whole circuit, checker
// annotations included), and any change to c. ref gives the reference
// mutant of each oracle site, in walk order, or nil for a stillborn one;
// the mutants are compared one at a time, as a large design's whole
// population of oracle clones would hold hundreds of megabytes. It
// returns Generate's mutant circuits by site, nil for stillborn sites.
func checkGenerate(t testing.TB, c *hdl.Circuit, ops []Operator, ref func(oracleSite) *hdl.Circuit) []*hdl.Circuit {
	t.Helper()
	before := c.Clone()
	if !reflect.DeepEqual(c, before) {
		t.Fatal("Clone is not DeepEqual to its source")
	}
	got := Generate(c, ops...)

	enabled := enabledSet(ops)
	sc, err := hdl.NewScope(c)
	if err != nil {
		t.Fatal(err)
	}
	sites, stmts := enumerate(c, sc, enabled)
	want := oracleEnumerate(t, c, enabled)
	if len(sites) != len(want) {
		t.Fatalf("%s %v: %d sites, oracle %d", c.Name, ops, len(sites), len(want))
	}
	bySite := make([]*hdl.Circuit, len(sites))
	k := 0 // next mutant of got
	for i, w := range want {
		st := &sites[i]
		if st.op != w.op || st.desc != w.desc {
			t.Fatalf("%s %v: site %d is %s %q, oracle %s %q", c.Name, ops, i, st.op, st.desc, w.op, w.desc)
		}
		rc := ref(w)
		if dead := build(c, sc, stmts, st) == nil; dead != (rc == nil) {
			t.Fatalf("%s %v: site %d (%s %q): stillborn %v, reference %v",
				c.Name, ops, i, st.op, st.desc, dead, rc == nil)
		}
		if rc == nil {
			continue
		}
		if k == len(got) {
			t.Fatalf("%s %v: %d mutants, the reference has more", c.Name, ops, len(got))
		}
		m := got[k]
		if m.ID != k || m.Op != w.op || m.Desc != w.desc {
			t.Fatalf("%s %v: mutant %d is #%d %s %q, reference #%d %s %q",
				c.Name, ops, k, m.ID, m.Op, m.Desc, k, w.op, w.desc)
		}
		if !reflect.DeepEqual(m.Circuit, rc) {
			t.Fatalf("%s %v: mutant #%d (%s %q) differs from the reference:\n%s\nreference:\n%s",
				c.Name, ops, k, m.Op, m.Desc, hdl.Format(m.Circuit), hdl.Format(rc))
		}
		bySite[i] = m.Circuit
		k++
	}
	if k != len(got) {
		t.Fatalf("%s %v: %d mutants, reference %d", c.Name, ops, len(got), k)
	}
	if !reflect.DeepEqual(c, before) {
		t.Fatalf("%s %v: Generate changed its input", c.Name, ops)
	}
	return bySite
}
