// Package hdl defines MHDL, the small VHDL-like register-transfer language
// that serves as the mutation substrate of this repository. It provides the
// abstract syntax tree, a lexer and recursive-descent parser, a width/type
// checker with definite-assignment analysis, and a source printer.
//
// MHDL deliberately mirrors the syntactic categories that the mutation
// operators of Al-Hayek & Robach (JETTA 1999) act on: named constants,
// variables (signals/registers), logical, relational, arithmetic and shift
// operators, if/case control flow, and clocked processes. A circuit is a
// single module with an implicit clock; sequential blocks (`seq`) update
// registers with two-phase semantics, combinational blocks (`comb`) drive
// wires and outputs within the cycle.
package hdl

import (
	"fmt"

	"repro/internal/bitvec"
)

// Pos is a source position (1-based line and column).
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Dir is a port direction.
type Dir int

// Port directions.
const (
	Input Dir = iota
	Output
)

func (d Dir) String() string {
	if d == Input {
		return "input"
	}
	return "output"
}

// Circuit is a parsed MHDL module: ports, state, named constants and the
// ordered list of seq/comb blocks.
type Circuit struct {
	Name   string
	Ports  []*Port
	Regs   []*Reg
	Wires  []*Wire
	Consts []*Const
	Blocks []*Block
}

// Port is an input or output of the circuit.
type Port struct {
	Name  string
	Width int
	Dir   Dir
	Pos   Pos
}

// Reg is a clocked state element. Init is its power-on value.
type Reg struct {
	Name  string
	Width int
	Init  bitvec.BV
	Pos   Pos
}

// Wire is a combinational intermediate signal driven by comb blocks.
type Wire struct {
	Name  string
	Width int
	Pos   Pos
}

// Const is a named compile-time constant. Constants are first-class
// mutation targets (the CR operator rewrites their uses' values).
type Const struct {
	Name  string
	Width int
	Value bitvec.BV
	Pos   Pos
}

// BlockKind distinguishes clocked from combinational blocks.
type BlockKind int

// Block kinds.
const (
	Seq BlockKind = iota
	Comb
)

func (k BlockKind) String() string {
	if k == Seq {
		return "seq"
	}
	return "comb"
}

// Block is a seq or comb process: an ordered statement list.
type Block struct {
	Kind  BlockKind
	Stmts []Stmt
	Pos   Pos
}

// Stmt is an MHDL statement.
type Stmt interface {
	stmtNode()
	StmtPos() Pos
}

// Assign writes RHS to a target signal, optionally a single bit of it.
type Assign struct {
	LHS *LValue
	RHS Expr
	Pos Pos
}

// LValue is an assignment target: a whole signal or one indexed bit.
type LValue struct {
	Name  string
	Index Expr // nil for whole-signal assignment; else a bit index
	Pos   Pos
}

// If is a two-way conditional. Else may be empty.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// Case selects an arm whose label list contains the subject's value.
type Case struct {
	Subject Expr
	Arms    []*CaseArm
	Default []Stmt // nil if absent
	Pos     Pos
}

// CaseArm is one `when` clause with one or more constant labels.
type CaseArm struct {
	Labels []Expr // literal or const refs, constant-folded by the checker
	Body   []Stmt
	Pos    Pos
}

// For is a bounded loop `for i in lo .. hi { ... }`, inclusive, unrolled at
// elaboration. The loop variable reads as an adaptable-width constant.
type For struct {
	Var    string
	Lo, Hi int
	Body   []Stmt
	Pos    Pos
}

func (*Assign) stmtNode() {}
func (*If) stmtNode()     {}
func (*Case) stmtNode()   {}
func (*For) stmtNode()    {}

// StmtPos returns the statement's source position.
func (s *Assign) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *If) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *Case) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *For) StmtPos() Pos { return s.Pos }

// Expr is an MHDL expression. Width is assigned by the checker; it is 0 on
// freshly parsed unsized literals until checking resolves the context.
type Expr interface {
	exprNode()
	ExprPos() Pos
	// ResultWidth reports the width assigned by the checker (0 = unresolved).
	ResultWidth() int
}

// Lit is an integer literal. Sized literals (`4'b1010`) carry their width
// from the source; unsized literals adapt to context during checking.
type Lit struct {
	Val   bitvec.BV // value; for unsized literals width is set by checker
	Raw   uint64    // original numeric value before sizing
	Sized bool      // whether the source carried an explicit width
	Width int       // resolved width (checker)
	Pos   Pos
}

// Ref names a port, register, wire, constant or loop variable.
type Ref struct {
	Name  string
	Width int // resolved width (checker); loop vars adapt like unsized lits
	Pos   Pos
}

// Index selects a single bit: X[I]. Result width is 1.
type Index struct {
	X   Expr
	I   Expr
	Pos Pos
}

// SliceExpr selects bits [Hi:Lo] of X, inclusive; width Hi-Lo+1.
type SliceExpr struct {
	X      Expr
	Hi, Lo int
	Pos    Pos
}

// UnOp is a unary operator.
type UnOp int

// Unary operators.
const (
	OpNot UnOp = iota // bitwise complement
	OpNeg             // two's-complement negation
	OpRedAnd
	OpRedOr
	OpRedXor
)

var unOpNames = map[UnOp]string{
	OpNot: "not", OpNeg: "-", OpRedAnd: "rand", OpRedOr: "ror", OpRedXor: "rxor",
}

func (op UnOp) String() string { return unOpNames[op] }

// Unary applies a unary operator.
type Unary struct {
	Op    UnOp
	X     Expr
	Width int
	Pos   Pos
}

// BinOp is a binary operator. The groupings below are exactly the operator
// classes the mutation operators substitute within.
type BinOp int

// Binary operators.
const (
	// logical (bitwise) — LOR class
	OpAnd BinOp = iota
	OpOr
	OpXor
	OpNand
	OpNor
	OpXnor
	// relational — ROR class
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// arithmetic — AOR class
	OpAdd
	OpSub
	OpMul
	// shifts — SOR class
	OpShl
	OpShr
	// structural
	OpConcat
)

var binOpNames = map[BinOp]string{
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNand: "nand", OpNor: "nor", OpXnor: "xnor",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpShl: "<<", OpShr: ">>", OpConcat: "++",
}

func (op BinOp) String() string { return binOpNames[op] }

// IsLogical reports whether op is in the LOR substitution class.
func (op BinOp) IsLogical() bool { return op >= OpAnd && op <= OpXnor }

// IsRelational reports whether op is in the ROR substitution class.
func (op BinOp) IsRelational() bool { return op >= OpEq && op <= OpGe }

// IsArithmetic reports whether op is in the AOR substitution class.
func (op BinOp) IsArithmetic() bool { return op >= OpAdd && op <= OpMul }

// IsShift reports whether op is in the SOR substitution class.
func (op BinOp) IsShift() bool { return op == OpShl || op == OpShr }

// Binary applies a binary operator.
type Binary struct {
	Op    BinOp
	X, Y  Expr
	Width int
	Pos   Pos
}

func (*Lit) exprNode()       {}
func (*Ref) exprNode()       {}
func (*Index) exprNode()     {}
func (*SliceExpr) exprNode() {}
func (*Unary) exprNode()     {}
func (*Binary) exprNode()    {}

// ExprPos returns the expression's source position.
func (e *Lit) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Ref) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Index) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *SliceExpr) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Unary) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Binary) ExprPos() Pos { return e.Pos }

// ResultWidth reports the checker-resolved width.
func (e *Lit) ResultWidth() int { return e.Width }

// ResultWidth reports the checker-resolved width.
func (e *Ref) ResultWidth() int { return e.Width }

// ResultWidth reports the checker-resolved width.
func (e *Index) ResultWidth() int { return 1 }

// ResultWidth reports the checker-resolved width.
func (e *SliceExpr) ResultWidth() int { return e.Hi - e.Lo + 1 }

// ResultWidth reports the checker-resolved width.
func (e *Unary) ResultWidth() int { return e.Width }

// ResultWidth reports the checker-resolved width.
func (e *Binary) ResultWidth() int { return e.Width }

// --- lookup helpers --------------------------------------------------------

// Inputs returns the circuit's input ports in declaration order.
func (c *Circuit) Inputs() []*Port {
	var in []*Port
	for _, p := range c.Ports {
		if p.Dir == Input {
			in = append(in, p)
		}
	}
	return in
}

// Outputs returns the circuit's output ports in declaration order.
func (c *Circuit) Outputs() []*Port {
	var out []*Port
	for _, p := range c.Ports {
		if p.Dir == Output {
			out = append(out, p)
		}
	}
	return out
}

// ConstByName returns the named constant, or nil.
func (c *Circuit) ConstByName(name string) *Const {
	for _, k := range c.Consts {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// --- deep clone -------------------------------------------------------------

// Clone returns a deep copy of the circuit that shares no node with it.
// Mutants are not clones: each shares every node its edit does not touch
// with its input (see mutation.Generate).
func (c *Circuit) Clone() *Circuit {
	n := &Circuit{Name: c.Name}
	for _, p := range c.Ports {
		cp := *p
		n.Ports = append(n.Ports, &cp)
	}
	for _, r := range c.Regs {
		cr := *r
		n.Regs = append(n.Regs, &cr)
	}
	for _, w := range c.Wires {
		cw := *w
		n.Wires = append(n.Wires, &cw)
	}
	for _, k := range c.Consts {
		ck := *k
		n.Consts = append(n.Consts, &ck)
	}
	for _, b := range c.Blocks {
		n.Blocks = append(n.Blocks, &Block{Kind: b.Kind, Stmts: cloneStmts(b.Stmts), Pos: b.Pos})
	}
	return n
}

func cloneStmts(ss []Stmt) []Stmt {
	if ss == nil {
		return nil
	}
	out := make([]Stmt, len(ss))
	for i, s := range ss {
		out[i] = CloneStmt(s)
	}
	return out
}

// CloneStmt returns a deep copy of a statement.
func CloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *Assign:
		lv := *s.LHS
		if s.LHS.Index != nil {
			lv.Index = CloneExpr(s.LHS.Index)
		}
		return &Assign{LHS: &lv, RHS: CloneExpr(s.RHS), Pos: s.Pos}
	case *If:
		return &If{Cond: CloneExpr(s.Cond), Then: cloneStmts(s.Then), Else: cloneStmts(s.Else), Pos: s.Pos}
	case *Case:
		n := &Case{Subject: CloneExpr(s.Subject), Default: cloneStmts(s.Default), Pos: s.Pos}
		for _, a := range s.Arms {
			na := &CaseArm{Body: cloneStmts(a.Body), Pos: a.Pos}
			for _, l := range a.Labels {
				na.Labels = append(na.Labels, CloneExpr(l))
			}
			n.Arms = append(n.Arms, na)
		}
		return n
	case *For:
		return &For{Var: s.Var, Lo: s.Lo, Hi: s.Hi, Body: cloneStmts(s.Body), Pos: s.Pos}
	default:
		panic(fmt.Sprintf("hdl: unknown statement %T", s))
	}
}

// CloneExpr returns a deep copy of an expression.
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case *Lit:
		n := *e
		return &n
	case *Ref:
		n := *e
		return &n
	case *Index:
		return &Index{X: CloneExpr(e.X), I: CloneExpr(e.I), Pos: e.Pos}
	case *SliceExpr:
		return &SliceExpr{X: CloneExpr(e.X), Hi: e.Hi, Lo: e.Lo, Pos: e.Pos}
	case *Unary:
		return &Unary{Op: e.Op, X: CloneExpr(e.X), Width: e.Width, Pos: e.Pos}
	case *Binary:
		return &Binary{Op: e.Op, X: CloneExpr(e.X), Y: CloneExpr(e.Y), Width: e.Width, Pos: e.Pos}
	default:
		panic(fmt.Sprintf("hdl: unknown expression %T", e))
	}
}

// --- walking ----------------------------------------------------------------

// Visitor receives every statement and expression of a circuit in a stable
// depth-first, declaration order. The same circuit always produces the same
// visit sequence, which is what lets the mutation engine address sites by
// ordinal.
type Visitor struct {
	// Stmt, if non-nil, is called for every statement before its children.
	Stmt func(s Stmt)
	// Expr, if non-nil, is called for every expression before its children.
	Expr func(e Expr)
}

// Walk traverses the circuit's blocks in order.
func Walk(c *Circuit, v Visitor) {
	for _, b := range c.Blocks {
		walkStmts(b.Stmts, v)
	}
}

func walkStmts(ss []Stmt, v Visitor) {
	for _, s := range ss {
		walkStmt(s, v)
	}
}

func walkStmt(s Stmt, v Visitor) {
	if v.Stmt != nil {
		v.Stmt(s)
	}
	switch s := s.(type) {
	case *Assign:
		if s.LHS.Index != nil {
			walkExpr(s.LHS.Index, v)
		}
		walkExpr(s.RHS, v)
	case *If:
		walkExpr(s.Cond, v)
		walkStmts(s.Then, v)
		walkStmts(s.Else, v)
	case *Case:
		walkExpr(s.Subject, v)
		for _, a := range s.Arms {
			for _, l := range a.Labels {
				walkExpr(l, v)
			}
			walkStmts(a.Body, v)
		}
		walkStmts(s.Default, v)
	case *For:
		walkStmts(s.Body, v)
	}
}

func walkExpr(e Expr, v Visitor) {
	if v.Expr != nil {
		v.Expr(e)
	}
	switch e := e.(type) {
	case *Index:
		walkExpr(e.X, v)
		walkExpr(e.I, v)
	case *SliceExpr:
		walkExpr(e.X, v)
	case *Unary:
		walkExpr(e.X, v)
	case *Binary:
		walkExpr(e.X, v)
		walkExpr(e.Y, v)
	}
}
