package hdl

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitvec"
)

// Mode selects how strict semantic checking is.
type Mode int

const (
	// Strict enforces everything, including definite assignment of all
	// combinational targets. Hand-written circuits destined for synthesis
	// are checked strictly.
	Strict Mode = iota
	// Relaxed checks names and widths only. Mutants are checked in Relaxed
	// mode: an SDL mutant may delete the default assignment of a wire, which
	// the simulator tolerates (wires reset to zero each cycle) but Strict
	// would reject.
	Relaxed
)

type symKind int

const (
	symInput symKind = iota
	symOutput
	symReg
	symWire
	symConst
)

func (k symKind) String() string {
	return [...]string{"input", "output", "reg", "wire", "const"}[k]
}

type symbol struct {
	kind  symKind
	width int
}

// Scope is the symbol table of one circuit: each declared port,
// register, wire and constant with its kind and width. Check builds one
// per call; the mutation engine builds one per input circuit and checks
// each edited statement against it. A Scope is only read once built, so
// concurrent CheckStmt calls may share it.
type Scope struct {
	c    *Circuit
	syms map[string]symbol
}

// NewScope builds c's symbol table. It fails, with Check's message, when
// a name is declared twice.
func NewScope(c *Circuit) (*Scope, error) {
	sc := &Scope{c: c, syms: make(map[string]symbol)}
	add := func(name string, kind symKind, width int, pos Pos) error {
		if _, dup := sc.syms[name]; dup {
			return &Error{Pos: pos, Msg: fmt.Sprintf("duplicate declaration of %q", name)}
		}
		sc.syms[name] = symbol{kind: kind, width: width}
		return nil
	}
	for _, p := range c.Ports {
		kind := symInput
		if p.Dir == Output {
			kind = symOutput
		}
		if err := add(p.Name, kind, p.Width, p.Pos); err != nil {
			return nil, err
		}
	}
	for _, r := range c.Regs {
		if err := add(r.Name, symReg, r.Width, r.Pos); err != nil {
			return nil, err
		}
	}
	for _, w := range c.Wires {
		if err := add(w.Name, symWire, w.Width, w.Pos); err != nil {
			return nil, err
		}
	}
	for _, k := range c.Consts {
		if err := add(k.Name, symConst, k.Width, k.Pos); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// Width returns the declared width of a port, register, wire or
// constant, and 0 for any other name (a loop variable, say).
func (sc *Scope) Width(name string) int { return sc.syms[name].width }

// IsConst reports whether name is a declared constant.
func (sc *Scope) IsConst(name string) bool {
	sym, ok := sc.syms[name]
	return ok && sym.kind == symConst
}

// CheckStmt checks what s holds itself: an Assign's target, bit index
// and right-hand side, an If's condition, a Case's subject and labels.
// It checks none of s's child statements. kind is the kind of the block
// that holds s, and loops are the variables of the For statements around
// it. Seeing one statement only, it cannot tell whether an output is
// driven from both block kinds. Like Check, it annotates the expressions
// it checks with their widths; Check runs every statement through it.
func (sc *Scope) CheckStmt(s Stmt, kind BlockKind, loops []string) error {
	ck := checker{Scope: sc, kind: kind, loops: loops[:len(loops):len(loops)]}
	return ck.stmt(s)
}

type checker struct {
	*Scope
	kind  BlockKind // kind of the block being checked
	loops []string  // variables of the enclosing For statements, outermost first
	// drivers records which block kind assigns each signal, to reject
	// signals driven from both seq and comb blocks. CheckStmt's checker
	// has none: it sees a lone statement, so it checks neither drivers
	// nor child statements.
	drivers map[string]BlockKind
}

// Check verifies name resolution, width consistency and (in Strict mode)
// definite assignment of combinational targets. It annotates expression
// nodes with their resolved widths as a side effect.
func Check(c *Circuit, mode Mode) error {
	sc, err := NewScope(c)
	if err != nil {
		return err
	}
	ck := &checker{Scope: sc, drivers: make(map[string]BlockKind)}
	for _, b := range c.Blocks {
		ck.kind = b.Kind
		if err := ck.stmts(b.Stmts); err != nil {
			return err
		}
	}
	if mode == Strict {
		if err := ck.definiteAssignment(); err != nil {
			return err
		}
	}
	return nil
}

func (ck *checker) errorf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (ck *checker) stmts(ss []Stmt) error {
	if ck.drivers == nil {
		return nil // a lone statement (CheckStmt): children go unchecked
	}
	for _, s := range ss {
		if err := ck.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (ck *checker) stmt(s Stmt) error {
	switch s := s.(type) {
	case *Assign:
		return ck.assign(s)
	case *If:
		if _, err := ck.expr(s.Cond, 0); err != nil {
			return err
		}
		if err := ck.stmts(s.Then); err != nil {
			return err
		}
		return ck.stmts(s.Else)
	case *Case:
		w, err := ck.expr(s.Subject, 0)
		if err != nil {
			return err
		}
		for _, arm := range s.Arms {
			for _, l := range arm.Labels {
				if !ck.isConstExpr(l) {
					return ck.errorf(l.ExprPos(), "case label must be a literal or named constant")
				}
				if _, err := ck.expr(l, w); err != nil {
					return err
				}
			}
			if err := ck.stmts(arm.Body); err != nil {
				return err
			}
		}
		return ck.stmts(s.Default)
	case *For:
		if slices.Contains(ck.loops, s.Var) {
			return ck.errorf(s.Pos, "nested loops reuse variable %q", s.Var)
		}
		if _, clash := ck.syms[s.Var]; clash {
			return ck.errorf(s.Pos, "loop variable %q shadows a declared signal", s.Var)
		}
		ck.loops = append(ck.loops, s.Var)
		err := ck.stmts(s.Body)
		ck.loops = ck.loops[:len(ck.loops)-1]
		return err
	default:
		return ck.errorf(s.StmtPos(), "unknown statement type %T", s)
	}
}

func (ck *checker) assign(s *Assign) error {
	sym, ok := ck.syms[s.LHS.Name]
	if !ok {
		return ck.errorf(s.Pos, "assignment to undeclared signal %q", s.LHS.Name)
	}
	switch sym.kind {
	case symInput:
		return ck.errorf(s.Pos, "cannot assign to input %q", s.LHS.Name)
	case symConst:
		return ck.errorf(s.Pos, "cannot assign to constant %q", s.LHS.Name)
	case symReg:
		if ck.kind != Seq {
			return ck.errorf(s.Pos, "register %q assigned outside a seq block", s.LHS.Name)
		}
	case symWire:
		if ck.kind != Comb {
			return ck.errorf(s.Pos, "wire %q assigned outside a comb block", s.LHS.Name)
		}
	case symOutput:
		if prev, seen := ck.drivers[s.LHS.Name]; seen && prev != ck.kind {
			return ck.errorf(s.Pos, "output %q driven by both seq and comb blocks", s.LHS.Name)
		}
	}
	if ck.drivers != nil {
		ck.drivers[s.LHS.Name] = ck.kind
	}

	want := sym.width
	if s.LHS.Index != nil {
		if err := ck.checkIndex(s.LHS.Index); err != nil {
			return err
		}
		if lit, isLit := s.LHS.Index.(*Lit); isLit && lit.Raw >= uint64(sym.width) {
			return ck.errorf(s.Pos, "bit index %d out of range for %q (width %d)", lit.Raw, s.LHS.Name, sym.width)
		}
		want = 1
	}
	_, err := ck.expr(s.RHS, want)
	return err
}

// checkIndex resolves a bit-index expression. Index arithmetic is usually
// built from loop variables and small literals, which have no inherent
// width; such expressions get a fixed 8-bit context (indices never exceed
// MaxWidth-1 = 63, which fits comfortably).
func (ck *checker) checkIndex(e Expr) error {
	ctx := 0
	if ck.isAdaptable(e) {
		ctx = 8
	}
	_, err := ck.expr(e, ctx)
	return err
}

// isAdaptable reports whether e has no inherent width and adapts to the
// width demanded by context: unsized literals, loop variables, and
// width-preserving compositions of those.
func (ck *checker) isAdaptable(e Expr) bool {
	switch e := e.(type) {
	case *Lit:
		return !e.Sized
	case *Ref:
		return ck.Width(e.Name) == 0 // loop variable (or undeclared, caught later)
	case *Unary:
		return (e.Op == OpNot || e.Op == OpNeg) && ck.isAdaptable(e.X)
	case *Binary:
		if e.Op.IsLogical() || e.Op.IsArithmetic() {
			return ck.isAdaptable(e.X) && ck.isAdaptable(e.Y)
		}
		return false
	default:
		return false
	}
}

// isConstExpr reports whether e evaluates to a compile-time constant
// (literal or reference to a named constant).
func (ck *checker) isConstExpr(e Expr) bool {
	switch e := e.(type) {
	case *Lit:
		return true
	case *Ref:
		return ck.IsConst(e.Name)
	default:
		return false
	}
}

func naturalWidth(v uint64) int {
	if v == 0 {
		return 1
	}
	return bits.Len64(v)
}

// expr resolves the width of e. ctx > 0 demands that width from adaptable
// subexpressions and cross-checks fixed-width ones; ctx == 0 leaves
// adaptable expressions at their natural width.
func (ck *checker) expr(e Expr, ctx int) (int, error) {
	switch e := e.(type) {
	case *Lit:
		if e.Sized {
			if ctx > 0 && ctx != e.Width {
				return 0, ck.errorf(e.Pos, "literal width %d where %d expected", e.Width, ctx)
			}
			return e.Width, nil
		}
		w := ctx
		if w == 0 {
			w = naturalWidth(e.Raw)
		}
		if e.Raw != 0 && naturalWidth(e.Raw) > w {
			return 0, ck.errorf(e.Pos, "literal %d does not fit in %d bits", e.Raw, w)
		}
		e.Width = w
		e.Val = bitvec.New(e.Raw, w)
		return w, nil
	case *Ref:
		if slices.Contains(ck.loops, e.Name) {
			w := ctx
			if w == 0 {
				w = 8 // loop indices are small; natural width for unconstrained uses
			}
			e.Width = w
			return w, nil
		}
		sym, ok := ck.syms[e.Name]
		if !ok {
			return 0, ck.errorf(e.Pos, "reference to undeclared signal %q", e.Name)
		}
		if ctx > 0 && ctx != sym.width {
			return 0, ck.errorf(e.Pos, "%s %q has width %d where %d expected", sym.kind, e.Name, sym.width, ctx)
		}
		e.Width = sym.width
		return sym.width, nil
	case *Index:
		xw, err := ck.expr(e.X, 0)
		if err != nil {
			return 0, err
		}
		if err := ck.checkIndex(e.I); err != nil {
			return 0, err
		}
		if lit, isLit := e.I.(*Lit); isLit && lit.Raw >= uint64(xw) {
			return 0, ck.errorf(e.Pos, "bit index %d out of range (width %d)", lit.Raw, xw)
		}
		if ctx > 1 {
			return 0, ck.errorf(e.Pos, "bit select has width 1 where %d expected", ctx)
		}
		return 1, nil
	case *SliceExpr:
		xw, err := ck.expr(e.X, 0)
		if err != nil {
			return 0, err
		}
		if e.Hi >= xw {
			return 0, ck.errorf(e.Pos, "slice [%d:%d] out of range (width %d)", e.Hi, e.Lo, xw)
		}
		w := e.Hi - e.Lo + 1
		if ctx > 0 && ctx != w {
			return 0, ck.errorf(e.Pos, "slice has width %d where %d expected", w, ctx)
		}
		return w, nil
	case *Unary:
		switch e.Op {
		case OpNot, OpNeg:
			w, err := ck.expr(e.X, ctx)
			if err != nil {
				return 0, err
			}
			e.Width = w
			return w, nil
		default: // reductions
			if ck.isAdaptable(e.X) {
				return 0, ck.errorf(e.Pos, "cannot infer width of reduction operand")
			}
			if _, err := ck.expr(e.X, 0); err != nil {
				return 0, err
			}
			if ctx > 1 {
				return 0, ck.errorf(e.Pos, "reduction has width 1 where %d expected", ctx)
			}
			e.Width = 1
			return 1, nil
		}
	case *Binary:
		return ck.binary(e, ctx)
	default:
		return 0, ck.errorf(e.ExprPos(), "unknown expression type %T", e)
	}
}

func (ck *checker) binary(e *Binary, ctx int) (int, error) {
	switch {
	case e.Op.IsLogical() || e.Op.IsArithmetic():
		w, err := ck.sameWidth(e, ctx)
		if err != nil {
			return 0, err
		}
		e.Width = w
		return w, nil
	case e.Op.IsRelational():
		if _, err := ck.sameWidth(e, 0); err != nil {
			return 0, err
		}
		if ctx > 1 {
			return 0, ck.errorf(e.Pos, "comparison has width 1 where %d expected", ctx)
		}
		e.Width = 1
		return 1, nil
	case e.Op.IsShift():
		w, err := ck.expr(e.X, ctx)
		if err != nil {
			return 0, err
		}
		if _, err := ck.expr(e.Y, 0); err != nil {
			return 0, err
		}
		e.Width = w
		return w, nil
	case e.Op == OpConcat:
		if ck.isAdaptable(e.X) || ck.isAdaptable(e.Y) {
			return 0, ck.errorf(e.Pos, "concat operands must have fixed widths")
		}
		xw, err := ck.expr(e.X, 0)
		if err != nil {
			return 0, err
		}
		yw, err := ck.expr(e.Y, 0)
		if err != nil {
			return 0, err
		}
		w := xw + yw
		if w > 64 {
			return 0, ck.errorf(e.Pos, "concat width %d exceeds 64", w)
		}
		if ctx > 0 && ctx != w {
			return 0, ck.errorf(e.Pos, "concat has width %d where %d expected", w, ctx)
		}
		e.Width = w
		return w, nil
	default:
		return 0, ck.errorf(e.Pos, "unknown binary operator")
	}
}

// sameWidth resolves both operands of a same-width operator, letting an
// adaptable side inherit the fixed side's width.
func (ck *checker) sameWidth(e *Binary, ctx int) (int, error) {
	ax, ay := ck.isAdaptable(e.X), ck.isAdaptable(e.Y)
	switch {
	case ax && !ay:
		yw, err := ck.expr(e.Y, ctx)
		if err != nil {
			return 0, err
		}
		if _, err := ck.expr(e.X, yw); err != nil {
			return 0, err
		}
		return yw, nil
	case !ax && ay:
		xw, err := ck.expr(e.X, ctx)
		if err != nil {
			return 0, err
		}
		if _, err := ck.expr(e.Y, xw); err != nil {
			return 0, err
		}
		return xw, nil
	case ax && ay:
		if ctx == 0 {
			return 0, ck.errorf(e.Pos, "cannot infer operand width for %s", e.Op)
		}
		if _, err := ck.expr(e.X, ctx); err != nil {
			return 0, err
		}
		if _, err := ck.expr(e.Y, ctx); err != nil {
			return 0, err
		}
		return ctx, nil
	default:
		xw, err := ck.expr(e.X, ctx)
		if err != nil {
			return 0, err
		}
		yw, err := ck.expr(e.Y, 0)
		if err != nil {
			return 0, err
		}
		if xw != yw {
			return 0, ck.errorf(e.Pos, "operand widths %d and %d differ for %s", xw, yw, e.Op)
		}
		return xw, nil
	}
}

// --- definite assignment ----------------------------------------------------

// definiteAssignment verifies that every wire and every comb-driven output
// is assigned on all paths through the comb blocks, so that synthesis never
// has to infer a latch.
func (ck *checker) definiteAssignment() error {
	targets := make(map[string]Pos)
	for _, w := range ck.c.Wires {
		targets[w.Name] = w.Pos
	}
	for _, p := range ck.c.Ports {
		if p.Dir == Output && ck.drivers[p.Name] == Comb {
			targets[p.Name] = p.Pos
		}
	}
	assigned := make(map[string]bool)
	for _, b := range ck.c.Blocks {
		if b.Kind != Comb {
			continue
		}
		if err := ck.defStmts(b.Stmts, assigned); err != nil {
			return err
		}
	}
	for name, pos := range targets {
		if !assigned[name] {
			return ck.errorf(pos, "combinational signal %q is not assigned on every path", name)
		}
	}
	return nil
}

// defStmts folds the definitely-assigned set through a statement list,
// checking wire reads against it, and returns via the assigned map.
func (ck *checker) defStmts(ss []Stmt, assigned map[string]bool) error {
	for _, s := range ss {
		if err := ck.defStmt(s, assigned); err != nil {
			return err
		}
	}
	return nil
}

func (ck *checker) defStmt(s Stmt, assigned map[string]bool) error {
	switch s := s.(type) {
	case *Assign:
		if err := ck.defExprRead(s.RHS, assigned); err != nil {
			return err
		}
		if s.LHS.Index == nil {
			assigned[s.LHS.Name] = true
		} else if !assigned[s.LHS.Name] {
			return ck.errorf(s.Pos, "bit assignment to %q before whole-signal initialization", s.LHS.Name)
		}
		return nil
	case *If:
		if err := ck.defExprRead(s.Cond, assigned); err != nil {
			return err
		}
		thenSet := copySet(assigned)
		if err := ck.defStmts(s.Then, thenSet); err != nil {
			return err
		}
		elseSet := copySet(assigned)
		if err := ck.defStmts(s.Else, elseSet); err != nil {
			return err
		}
		intersectInto(assigned, thenSet, elseSet)
		return nil
	case *Case:
		if err := ck.defExprRead(s.Subject, assigned); err != nil {
			return err
		}
		var branches []map[string]bool
		for _, arm := range s.Arms {
			set := copySet(assigned)
			if err := ck.defStmts(arm.Body, set); err != nil {
				return err
			}
			branches = append(branches, set)
		}
		complete := s.Default != nil || ck.caseCovers(s)
		if s.Default != nil {
			set := copySet(assigned)
			if err := ck.defStmts(s.Default, set); err != nil {
				return err
			}
			branches = append(branches, set)
		}
		if complete && len(branches) > 0 {
			intersectInto(assigned, branches...)
		}
		return nil
	case *For:
		// The loop always runs at least once (lo <= hi is enforced by the
		// parser), so its body's assignments are definite.
		return ck.defStmts(s.Body, assigned)
	default:
		return nil
	}
}

// caseCovers reports whether a case's arms enumerate every value of the
// subject's width (only feasible to check for widths up to 16 bits).
func (ck *checker) caseCovers(s *Case) bool {
	w := 0
	if bw, err := ck.expr(s.Subject, 0); err == nil {
		w = bw
	}
	if w == 0 || w > 16 {
		return false
	}
	seen := make(map[uint64]bool)
	for _, arm := range s.Arms {
		for _, l := range arm.Labels {
			switch l := l.(type) {
			case *Lit:
				seen[l.Raw] = true
			case *Ref:
				if k := ck.c.ConstByName(l.Name); k != nil {
					seen[k.Value.Uint()] = true
				}
			}
		}
	}
	return len(seen) >= 1<<uint(w)
}

func (ck *checker) defExprRead(e Expr, assigned map[string]bool) error {
	var readErr error
	walkExpr(e, Visitor{Expr: func(x Expr) {
		if readErr != nil {
			return
		}
		if r, ok := x.(*Ref); ok {
			if sym, exists := ck.syms[r.Name]; exists && sym.kind == symWire && !assigned[r.Name] {
				readErr = ck.errorf(r.Pos, "wire %q read before assignment", r.Name)
			}
		}
	}})
	return readErr
}

func copySet(m map[string]bool) map[string]bool {
	n := make(map[string]bool, len(m))
	for k, v := range m {
		n[k] = v
	}
	return n
}

// intersectInto replaces dst with the intersection of the given sets.
func intersectInto(dst map[string]bool, sets ...map[string]bool) {
	for k := range dst {
		delete(dst, k)
	}
	if len(sets) == 0 {
		return
	}
	for k := range sets[0] {
		inAll := true
		for _, s := range sets[1:] {
			if !s[k] {
				inAll = false
				break
			}
		}
		if inAll {
			dst[k] = true
		}
	}
}

// AssignedSignals returns the set of signal names assigned (anywhere,
// including conditionally) by blocks of the given kind. The simulator and
// synthesizer use it to classify outputs as registered or combinational.
func (c *Circuit) AssignedSignals(kind BlockKind) map[string]bool {
	out := make(map[string]bool)
	for _, b := range c.Blocks {
		if b.Kind != kind {
			continue
		}
		walkStmts(b.Stmts, Visitor{Stmt: func(s Stmt) {
			if a, ok := s.(*Assign); ok {
				out[a.LHS.Name] = true
			}
		}})
	}
	return out
}
