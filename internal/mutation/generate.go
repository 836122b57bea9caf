package mutation

import (
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/hdl"
	"repro/internal/par"
)

// Mutant is one faulty version of a circuit.
type Mutant struct {
	ID   int      // position in the deterministic enumeration
	Op   Operator // operator that produced it
	Desc string   // human-readable site/change description
	// Circuit is the input circuit with one edit, checked in relaxed
	// mode. It shares every node the edit does not touch with the input:
	// only its header, the block list, the statement lists on the path to
	// the edit, the edited statement and that statement's own expressions
	// are its own. Both stay read-only while the mutants live. Do not
	// Check a mutant again: the checker writes width annotations, into
	// the shared nodes too.
	Circuit *hdl.Circuit
}

// siteKind enumerates the mechanical change a site descriptor encodes.
type siteKind int

const (
	kindBinOp      siteKind = iota // replace a Binary's operator
	kindSwapIf                     // swap an If's branches (CNR)
	kindWrapNot                    // wrap a Ref in not (UOI)
	kindDeleteStmt                 // delete an Assign (SDL)
	kindRefToRef                   // replace a Ref's target (VR)
	kindRefToLit                   // replace a Ref with a literal (CVR)
	kindLitValue                   // change a Lit's value (CR)
	kindConstDecl                  // change a const declaration's value (CR)
)

// edit is one change an operator makes, without the place it is made.
type edit struct {
	op       Operator
	kind     siteKind
	newBinOp hdl.BinOp
	newName  string
	newVal   bitvec.BV
	desc     string
}

// site is an edit and its place in the input circuit: a statement (a row
// of the enumeration's statement table) and, for an expression edit, the
// ordinal of the edited expression among the expressions that statement
// holds itself, counted in hdl.Walk order. A const declaration edit names
// the declaration instead.
type site struct {
	edit
	stmt int // row in the statement table; -1 for kindConstDecl
	expr int // expression ordinal in the statement; -1 for statement edits
	decl int // index into Circuit.Consts, for kindConstDecl
}

// stmtPos locates one statement of the input circuit: its block, the
// compound statements around it, and its index in the innermost list.
type stmtPos struct {
	block int
	path  []step
	at    int
	loops []string // variables of the enclosing For statements, outermost first
}

// step is one compound statement on a statement's path: the index of the
// compound statement in its list and which child list holds the rest of
// the path. An If's Then is list 0 and its Else list 1, a Case's arm k
// is list k and its Default list len(Arms), and a For's body is list 0.
type step struct{ at, list int }

// Generate enumerates and constructs all mutants of c for the given
// operators (all ten if none are given). Mutants that fail the relaxed
// semantic re-check (stillborn) are discarded. The input circuit must
// have passed hdl.Check. Generate only reads it, so concurrent calls on
// one circuit are safe, and every mutant shares the nodes its edit does
// not touch with it (see Mutant.Circuit).
//
// Construction (path copy, edit, re-check of the edited statement) is
// independent per site and runs on a worker pool; enumeration order,
// surviving set and mutant IDs are identical to a serial build.
func Generate(c *hdl.Circuit, ops ...Operator) []*Mutant {
	enabled := enabledSet(ops)
	sc, err := hdl.NewScope(c)
	if err != nil {
		return nil // a duplicate declaration: every mutant would fail its check
	}
	sites, stmts := enumerate(c, sc, enabled)
	built := make([]*hdl.Circuit, len(sites))
	par.Indexed(len(sites), 0, func(_, i int) {
		built[i] = build(c, sc, stmts, &sites[i])
	})
	mutants := make([]*Mutant, 0, len(sites))
	for i, mc := range built {
		if mc == nil {
			continue
		}
		mutants = append(mutants, &Mutant{
			ID:      len(mutants),
			Op:      sites[i].op,
			Desc:    sites[i].desc,
			Circuit: mc,
		})
	}
	return mutants
}

// enabledSet returns the set of the given operators, all ten if none
// are given.
func enabledSet(ops []Operator) map[Operator]bool {
	if len(ops) == 0 {
		ops = AllOperators()
	}
	enabled := make(map[Operator]bool, len(ops))
	for _, op := range ops {
		if !op.Valid() {
			panic(fmt.Sprintf("mutation: invalid operator %q", op))
		}
		enabled[op] = true
	}
	return enabled
}

// CountByOperator tallies a mutant population per operator.
func CountByOperator(ms []*Mutant) map[Operator]int {
	out := make(map[Operator]int)
	for _, m := range ms {
		out[m.Op]++
	}
	return out
}

// ByOperator partitions a mutant population per operator, preserving
// enumeration order within each class.
func ByOperator(ms []*Mutant) map[Operator][]*Mutant {
	out := make(map[Operator][]*Mutant)
	for _, m := range ms {
		out[m.Op] = append(out[m.Op], m)
	}
	return out
}

// --- enumeration -------------------------------------------------------------

// logicalAlts lists the LOR substitution class.
var logicalAlts = []hdl.BinOp{hdl.OpAnd, hdl.OpOr, hdl.OpXor, hdl.OpNand, hdl.OpNor, hdl.OpXnor}

// relationalAlts lists the ROR substitution class.
var relationalAlts = []hdl.BinOp{hdl.OpEq, hdl.OpNe, hdl.OpLt, hdl.OpLe, hdl.OpGt, hdl.OpGe}

// arithmeticAlts lists the AOR substitution class.
var arithmeticAlts = []hdl.BinOp{hdl.OpAdd, hdl.OpSub, hdl.OpMul}

// rules decides which edits the enabled operators make at one statement,
// expression or const declaration of a circuit. Where the edits go is the
// caller's business.
type rules struct {
	c       *hdl.Circuit
	sc      *hdl.Scope
	enabled map[Operator]bool
	vars    map[int][]string // VR candidates by width
}

func newRules(c *hdl.Circuit, sc *hdl.Scope, enabled map[Operator]bool) *rules {
	return &rules{c: c, sc: sc, enabled: enabled, vars: variableCandidates(c)}
}

// stmtEdits lists the edits of the statement itself: SDL on an Assign,
// CNR on an If.
func (r *rules) stmtEdits(s hdl.Stmt, add func(edit)) {
	switch s := s.(type) {
	case *hdl.Assign:
		if r.enabled[SDL] {
			add(edit{op: SDL, kind: kindDeleteStmt,
				desc: fmt.Sprintf("%s: delete assignment to %s", s.Pos, s.LHS.Name)})
		}
	case *hdl.If:
		if r.enabled[CNR] {
			add(edit{op: CNR, kind: kindSwapIf,
				desc: fmt.Sprintf("%s: negate condition %s", s.Pos, hdl.FormatExpr(s.Cond))})
		}
	}
}

// exprEdits lists the edits of expression e itself, not of its
// subexpressions. inLabel marks a case label, whose signal reads must
// stay constant.
func (r *rules) exprEdits(e hdl.Expr, inLabel bool, add func(edit)) {
	switch e := e.(type) {
	case *hdl.Binary:
		var op Operator
		var alts []hdl.BinOp
		switch {
		case e.Op.IsLogical():
			op, alts = LOR, logicalAlts
		case e.Op.IsRelational():
			op, alts = ROR, relationalAlts
		case e.Op.IsArithmetic():
			op, alts = AOR, arithmeticAlts
		case e.Op.IsShift():
			op = SOR
			if e.Op == hdl.OpShl {
				alts = []hdl.BinOp{hdl.OpShr}
			} else {
				alts = []hdl.BinOp{hdl.OpShl}
			}
		default:
			return
		}
		if !r.enabled[op] {
			return
		}
		for _, alt := range alts {
			if alt == e.Op {
				continue
			}
			add(edit{op: op, kind: kindBinOp, newBinOp: alt,
				desc: fmt.Sprintf("%s: %s -> %s", e.Pos, e.Op, alt)})
		}
	case *hdl.Ref:
		if inLabel {
			return // labels must stay constant
		}
		w := r.sc.Width(e.Name)
		if w == 0 {
			return // loop variable
		}
		if r.sc.IsConst(e.Name) {
			return // const reads are CR territory (via declaration sites)
		}
		if r.enabled[UOI] {
			add(edit{op: UOI, kind: kindWrapNot,
				desc: fmt.Sprintf("%s: %s -> not %s", e.Pos, e.Name, e.Name)})
		}
		if r.enabled[VR] {
			for _, cand := range r.vars[w] {
				if cand == e.Name {
					continue
				}
				add(edit{op: VR, kind: kindRefToRef, newName: cand,
					desc: fmt.Sprintf("%s: %s -> %s", e.Pos, e.Name, cand)})
			}
		}
		if r.enabled[CVR] {
			for _, v := range cvrVariants(r.c, w) {
				add(edit{op: CVR, kind: kindRefToLit, newVal: v,
					desc: fmt.Sprintf("%s: %s -> %s", e.Pos, e.Name, v)})
			}
		}
	case *hdl.Lit:
		if !r.enabled[CR] || e.Width == 0 {
			return
		}
		for _, v := range constantVariants(e.Width, &e.Val) {
			add(edit{op: CR, kind: kindLitValue, newVal: v,
				desc: fmt.Sprintf("%s: %s -> %s", e.Pos, e.Val, v)})
		}
	}
}

// constEdits lists the CR edits of the const declarations, with each
// declaration's index.
func (r *rules) constEdits(add func(decl int, ed edit)) {
	if !r.enabled[CR] {
		return
	}
	for i, k := range r.c.Consts {
		for _, v := range constantVariants(k.Width, &k.Value) {
			add(i, edit{op: CR, kind: kindConstDecl, newVal: v,
				desc: fmt.Sprintf("%s: const %s %s -> %s", k.Pos, k.Name, k.Value, v)})
		}
	}
}

// enumerate lists the sites of c in the deterministic order of hdl.Walk:
// each statement's own edits, then those of the expressions it holds,
// then its child statements', and the const declarations' last. It
// returns the sites and the table of c's statements they point into. It
// only reads c.
func enumerate(c *hdl.Circuit, sc *hdl.Scope, enabled map[Operator]bool) ([]site, []stmtPos) {
	en := &enumerator{rules: newRules(c, sc, enabled)}
	for bi, b := range c.Blocks {
		en.block = bi
		en.list(b.Stmts)
	}
	en.constEdits(func(decl int, ed edit) {
		en.sites = append(en.sites, site{edit: ed, stmt: -1, expr: -1, decl: decl})
	})
	return en.sites, en.stmts
}

// enumerator walks the input circuit read-only, tracking where it is.
type enumerator struct {
	*rules
	sites []site
	stmts []stmtPos
	block int
	path  []step
	loops []string
}

// stmtCursor is the walk's state inside one statement: its row in the
// statement table and the ordinal of its next own expression.
type stmtCursor struct {
	row, next int
}

func (en *enumerator) list(ss []hdl.Stmt) {
	for i, s := range ss {
		en.stmt(s, i)
	}
}

// child walks child list k of the compound statement at index at.
func (en *enumerator) child(at, k int, ss []hdl.Stmt) {
	en.path = append(en.path, step{at: at, list: k})
	en.list(ss)
	en.path = en.path[:len(en.path)-1]
}

func (en *enumerator) stmt(s hdl.Stmt, at int) {
	cur := &stmtCursor{row: len(en.stmts)}
	en.stmts = append(en.stmts, stmtPos{
		block: en.block, path: slices.Clone(en.path), at: at, loops: slices.Clone(en.loops),
	})
	en.stmtEdits(s, func(ed edit) { en.add(cur, -1, ed) })
	switch s := s.(type) {
	case *hdl.Assign:
		if s.LHS.Index != nil {
			en.expr(cur, s.LHS.Index, false)
		}
		en.expr(cur, s.RHS, false)
	case *hdl.If:
		en.expr(cur, s.Cond, false)
		en.child(at, 0, s.Then)
		en.child(at, 1, s.Else)
	case *hdl.Case:
		en.expr(cur, s.Subject, false)
		for k, arm := range s.Arms {
			for _, l := range arm.Labels {
				en.expr(cur, l, true)
			}
			en.child(at, k, arm.Body)
		}
		en.child(at, len(s.Arms), s.Default)
	case *hdl.For:
		en.loops = append(en.loops, s.Var)
		en.child(at, 0, s.Body)
		en.loops = en.loops[:len(en.loops)-1]
	}
}

// expr enumerates the edits of e and its subexpressions, numbering each
// expression within the statement of cur.
func (en *enumerator) expr(cur *stmtCursor, e hdl.Expr, inLabel bool) {
	ord := cur.next
	cur.next++
	en.exprEdits(e, inLabel, func(ed edit) { en.add(cur, ord, ed) })
	switch e := e.(type) {
	case *hdl.Index:
		en.expr(cur, e.X, inLabel)
		en.expr(cur, e.I, inLabel)
	case *hdl.SliceExpr:
		en.expr(cur, e.X, inLabel)
	case *hdl.Unary:
		en.expr(cur, e.X, inLabel)
	case *hdl.Binary:
		en.expr(cur, e.X, inLabel)
		en.expr(cur, e.Y, inLabel)
	}
}

func (en *enumerator) add(cur *stmtCursor, expr int, ed edit) {
	en.sites = append(en.sites, site{edit: ed, stmt: cur.row, expr: expr})
}

// variableCandidates maps width -> names of replaceable signals (inputs,
// registers and wires) for the VR operator.
func variableCandidates(c *hdl.Circuit) map[int][]string {
	out := make(map[int][]string)
	for _, p := range c.Ports {
		if p.Dir == hdl.Input {
			out[p.Width] = append(out[p.Width], p.Name)
		}
	}
	for _, r := range c.Regs {
		out[r.Width] = append(out[r.Width], r.Name)
	}
	for _, w := range c.Wires {
		out[w.Width] = append(out[w.Width], w.Name)
	}
	return out
}

// constantVariants returns the CR constant set for a literal or constant
// declaration of the given width: zero, all-ones, one, the bitwise
// complement, and value±1 — excluding the original value. For widths up to
// exhaustiveCRWidth every other value of the domain is enumerated instead,
// which matches the domain-exhaustive constant mutation of VHDL mutation
// tools and makes CR classes value-rich.
const exhaustiveCRWidth = 4

func constantVariants(width int, orig *bitvec.BV) []bitvec.BV {
	var cands []bitvec.BV
	if width <= exhaustiveCRWidth {
		for v := uint64(0); v < 1<<uint(width); v++ {
			cands = append(cands, bitvec.New(v, width))
		}
	} else {
		cands = append(cands, bitvec.Zero(width), bitvec.Ones(width), bitvec.New(1, width))
		if orig != nil {
			cands = append(cands,
				orig.Add(bitvec.New(1, width)),
				orig.Sub(bitvec.New(1, width)),
				orig.Not())
		}
	}
	return dedupExcluding(cands, orig)
}

// cvrVariants returns the CVR constant set for a variable of the given
// width: the domain corners (zero, one, all-ones) plus the value of every
// declared constant of matching width — the "constants of the description"
// a VHDL CVR operator substitutes.
func cvrVariants(c *hdl.Circuit, width int) []bitvec.BV {
	cands := []bitvec.BV{bitvec.Zero(width), bitvec.Ones(width), bitvec.New(1, width)}
	for _, k := range c.Consts {
		if k.Width == width {
			cands = append(cands, k.Value)
		}
	}
	return dedupExcluding(cands, nil)
}

func dedupExcluding(cands []bitvec.BV, orig *bitvec.BV) []bitvec.BV {
	var out []bitvec.BV
	seen := make(map[uint64]bool)
	for _, v := range cands {
		if orig != nil && v.Equal(*orig) {
			continue
		}
		if seen[v.Uint()] {
			continue
		}
		seen[v.Uint()] = true
		out = append(out, v)
	}
	return out
}

// --- construction ------------------------------------------------------------

// build makes the mutant of one site by path copying: a new circuit
// header, copies of the block list and of every statement list and
// compound statement on the path to the edited statement, and a copy of
// that statement and of the expressions it holds itself, edited.
// Everything else is the input's. Only the edited statement is checked
// again; build returns nil for a stillborn mutant, one that fails that
// relaxed check. Deleting an assignment or changing a const declaration
// leaves no statement to check and fails no check: the input passed.
func build(c *hdl.Circuit, sc *hdl.Scope, stmts []stmtPos, st *site) *hdl.Circuit {
	mc := *c
	if st.kind == kindConstDecl {
		mc.Consts = slices.Clone(c.Consts)
		k := *c.Consts[st.decl]
		k.Value = st.newVal
		mc.Consts[st.decl] = &k
		return &mc
	}
	pos := &stmts[st.stmt]
	mc.Blocks = slices.Clone(c.Blocks)
	b := *c.Blocks[pos.block]
	mc.Blocks[pos.block] = &b
	list := &b.Stmts
	for _, stp := range pos.path {
		*list = slices.Clone(*list)
		list = descend(*list, stp)
	}
	if st.kind == kindDeleteStmt {
		out := make([]hdl.Stmt, 0, len(*list)-1)
		*list = append(append(out, (*list)[:pos.at]...), (*list)[pos.at+1:]...)
		return &mc
	}
	*list = slices.Clone(*list)
	ed := &editor{st: st}
	s := ed.stmt((*list)[pos.at])
	(*list)[pos.at] = s
	if sc.CheckStmt(s, b.Kind, pos.loops) != nil {
		return nil
	}
	return &mc
}

// descend replaces the compound statement at stp.at of list, a copy
// already, by a shallow copy of it, and returns the copy's child list
// stp.list, still the input's, for the caller to copy.
func descend(list []hdl.Stmt, stp step) *[]hdl.Stmt {
	switch s := list[stp.at].(type) {
	case *hdl.If:
		n := *s
		list[stp.at] = &n
		if stp.list == 0 {
			return &n.Then
		}
		return &n.Else
	case *hdl.Case:
		n := *s
		list[stp.at] = &n
		if stp.list == len(s.Arms) {
			return &n.Default
		}
		n.Arms = slices.Clone(s.Arms)
		arm := *s.Arms[stp.list]
		n.Arms[stp.list] = &arm
		return &arm.Body
	case *hdl.For:
		n := *s
		list[stp.at] = &n
		return &n.Body
	default:
		panic(fmt.Sprintf("mutation: no child list in %T", s))
	}
}

// editor copies the statement a site edits together with the
// expressions the statement holds itself, numbering those as enumerate
// does, and makes the site's edit in the copy.
type editor struct {
	st   *site
	next int // ordinal of the next expression copied
}

func (ed *editor) stmt(s hdl.Stmt) hdl.Stmt {
	switch s := s.(type) {
	case *hdl.Assign:
		n := *s
		if s.LHS.Index != nil {
			lv := *s.LHS
			lv.Index = ed.expr(s.LHS.Index)
			n.LHS = &lv
		}
		n.RHS = ed.expr(s.RHS)
		return &n
	case *hdl.If:
		n := *s
		n.Cond = ed.expr(s.Cond)
		if ed.st.kind == kindSwapIf {
			n.Then, n.Else = s.Else, s.Then
		}
		return &n
	case *hdl.Case:
		n := *s
		n.Subject = ed.expr(s.Subject)
		n.Arms = slices.Clone(s.Arms)
		for k, arm := range s.Arms {
			na := *arm
			na.Labels = slices.Clone(arm.Labels)
			for j, l := range arm.Labels {
				na.Labels[j] = ed.expr(l)
			}
			n.Arms[k] = &na
		}
		return &n
	default:
		panic(fmt.Sprintf("mutation: no expression edit in %T", s))
	}
}

func (ed *editor) expr(e hdl.Expr) hdl.Expr {
	here := ed.next == ed.st.expr
	ed.next++
	switch e := e.(type) {
	case *hdl.Lit:
		n := *e
		if here { // kindLitValue
			n.Val, n.Raw, n.Sized = ed.st.newVal, ed.st.newVal.Uint(), true
		}
		return &n
	case *hdl.Ref:
		n := *e
		if !here {
			return &n
		}
		switch ed.st.kind {
		case kindWrapNot:
			return &hdl.Unary{Op: hdl.OpNot, X: &n, Width: n.Width, Pos: n.Pos}
		case kindRefToRef:
			n.Name = ed.st.newName
			return &n
		default: // kindRefToLit
			v := ed.st.newVal
			return &hdl.Lit{Val: v, Raw: v.Uint(), Sized: true, Width: v.Width(), Pos: n.Pos}
		}
	case *hdl.Index:
		return &hdl.Index{X: ed.expr(e.X), I: ed.expr(e.I), Pos: e.Pos}
	case *hdl.SliceExpr:
		return &hdl.SliceExpr{X: ed.expr(e.X), Hi: e.Hi, Lo: e.Lo, Pos: e.Pos}
	case *hdl.Unary:
		return &hdl.Unary{Op: e.Op, X: ed.expr(e.X), Width: e.Width, Pos: e.Pos}
	case *hdl.Binary:
		n := &hdl.Binary{Op: e.Op, X: ed.expr(e.X), Y: ed.expr(e.Y), Width: e.Width, Pos: e.Pos}
		if here { // kindBinOp
			n.Op = ed.st.newBinOp
		}
		return n
	default:
		panic(fmt.Sprintf("mutation: unknown expression %T", e))
	}
}
