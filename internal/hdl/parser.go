package hdl

import (
	"fmt"

	"repro/internal/bitvec"
)

// Parse parses MHDL source into a Circuit and runs the width checker in
// strict mode (definite-assignment enforced). It is the entry point used
// for hand-written circuits destined for synthesis.
func Parse(src string) (*Circuit, error) {
	c, err := ParseOnly(src)
	if err != nil {
		return nil, err
	}
	if err := Check(c, Strict); err != nil {
		return nil, err
	}
	return c, nil
}

// ParseOnly parses without semantic checking. Mutants are re-checked in
// Relaxed mode by the mutation engine.
func ParseOnly(src string) (*Circuit, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	c, err := p.parseCircuit()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %s", p.tok)
	}
	return c, nil
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) accept(kind tokenKind, text string) (bool, error) {
	if p.tok.kind == kind && p.tok.text == text {
		return true, p.advance()
	}
	return false, nil
}

func (p *parser) expect(kind tokenKind, text string) error {
	if p.tok.kind != kind || p.tok.text != text {
		return p.errorf("expected %q, found %s", text, p.tok)
	}
	return p.advance()
}

func (p *parser) expectIdent() (string, Pos, error) {
	if p.tok.kind != tokIdent {
		return "", p.tok.pos, p.errorf("expected identifier, found %s", p.tok)
	}
	name, pos := p.tok.text, p.tok.pos
	return name, pos, p.advance()
}

func (p *parser) parseCircuit() (*Circuit, error) {
	if err := p.expect(tokKeyword, "circuit"); err != nil {
		return nil, err
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	c := &Circuit{Name: name}
	if err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	for {
		if ok, err := p.accept(tokPunct, "}"); err != nil {
			return nil, err
		} else if ok {
			return c, nil
		}
		if p.tok.kind != tokKeyword {
			return nil, p.errorf("expected declaration or block, found %s", p.tok)
		}
		switch p.tok.text {
		case "input", "output":
			dir := Input
			if p.tok.text == "output" {
				dir = Output
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, pos, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			w, err := p.parseTypeSuffix()
			if err != nil {
				return nil, err
			}
			c.Ports = append(c.Ports, &Port{Name: name, Width: w, Dir: dir, Pos: pos})
		case "reg":
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, pos, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			w, err := p.parseTypeSuffixNoSemi()
			if err != nil {
				return nil, err
			}
			init := bitvec.Zero(w)
			if ok, err := p.accept(tokPunct, "="); err != nil {
				return nil, err
			} else if ok {
				v, vw, err := p.parseConstNumber()
				if err != nil {
					return nil, err
				}
				if vw != 0 && vw != w {
					return nil, p.errorf("reg %s init width %d != declared %d", name, vw, w)
				}
				init = bitvec.New(v, w)
			}
			if err := p.expect(tokPunct, ";"); err != nil {
				return nil, err
			}
			c.Regs = append(c.Regs, &Reg{Name: name, Width: w, Init: init, Pos: pos})
		case "wire":
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, pos, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			w, err := p.parseTypeSuffix()
			if err != nil {
				return nil, err
			}
			c.Wires = append(c.Wires, &Wire{Name: name, Width: w, Pos: pos})
		case "const":
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, pos, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			w, err := p.parseTypeSuffixNoSemi()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokPunct, "="); err != nil {
				return nil, err
			}
			v, vw, err := p.parseConstNumber()
			if err != nil {
				return nil, err
			}
			if vw != 0 && vw != w {
				return nil, p.errorf("const %s value width %d != declared %d", name, vw, w)
			}
			if err := p.expect(tokPunct, ";"); err != nil {
				return nil, err
			}
			c.Consts = append(c.Consts, &Const{Name: name, Width: w, Value: bitvec.New(v, w), Pos: pos})
		case "seq", "comb":
			kind := Seq
			if p.tok.text == "comb" {
				kind = Comb
			}
			pos := p.tok.pos
			if err := p.advance(); err != nil {
				return nil, err
			}
			body, err := p.parseStmtBlock()
			if err != nil {
				return nil, err
			}
			c.Blocks = append(c.Blocks, &Block{Kind: kind, Stmts: body, Pos: pos})
		default:
			return nil, p.errorf("unexpected keyword %q at circuit level", p.tok.text)
		}
	}
}

// parseTypeSuffix parses `: bit;` or `: bits(N);` including the semicolon.
func (p *parser) parseTypeSuffix() (int, error) {
	w, err := p.parseTypeSuffixNoSemi()
	if err != nil {
		return 0, err
	}
	return w, p.expect(tokPunct, ";")
}

func (p *parser) parseTypeSuffixNoSemi() (int, error) {
	if err := p.expect(tokPunct, ":"); err != nil {
		return 0, err
	}
	if ok, err := p.accept(tokKeyword, "bit"); err != nil {
		return 0, err
	} else if ok {
		return 1, nil
	}
	if err := p.expect(tokKeyword, "bits"); err != nil {
		return 0, err
	}
	if err := p.expect(tokPunct, "("); err != nil {
		return 0, err
	}
	if p.tok.kind != tokNumber {
		return 0, p.errorf("expected width, found %s", p.tok)
	}
	w := int(p.tok.num)
	if w < 1 || w > bitvec.MaxWidth {
		return 0, p.errorf("width %d out of range", w)
	}
	if err := p.advance(); err != nil {
		return 0, err
	}
	return w, p.expect(tokPunct, ")")
}

func (p *parser) parseConstNumber() (uint64, int, error) {
	if p.tok.kind != tokNumber {
		return 0, 0, p.errorf("expected number, found %s", p.tok)
	}
	v, w := p.tok.num, p.tok.numWidth
	return v, w, p.advance()
}

func (p *parser) parseStmtBlock() ([]Stmt, error) {
	if err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for {
		if ok, err := p.accept(tokPunct, "}"); err != nil {
			return nil, err
		} else if ok {
			return out, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *parser) parseStmt() (Stmt, error) {
	pos := p.tok.pos
	if p.tok.kind == tokKeyword {
		switch p.tok.text {
		case "if":
			return p.parseIf()
		case "case":
			return p.parseCase()
		case "for":
			return p.parseFor()
		}
		return nil, p.errorf("unexpected keyword %q in statement", p.tok.text)
	}
	// assignment
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	lv := &LValue{Name: name, Pos: pos}
	if ok, err := p.accept(tokPunct, "["); err != nil {
		return nil, err
	} else if ok {
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		lv.Index = idx
		if err := p.expect(tokPunct, "]"); err != nil {
			return nil, err
		}
	}
	if err := p.expect(tokPunct, "="); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	return &Assign{LHS: lv, RHS: rhs, Pos: pos}, nil
}

func (p *parser) parseIf() (Stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume if
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseStmtBlock()
	if err != nil {
		return nil, err
	}
	node := &If{Cond: cond, Then: then, Pos: pos}
	if ok, err := p.accept(tokKeyword, "else"); err != nil {
		return nil, err
	} else if ok {
		if p.tok.kind == tokKeyword && p.tok.text == "if" {
			nested, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			node.Else = []Stmt{nested}
		} else {
			els, err := p.parseStmtBlock()
			if err != nil {
				return nil, err
			}
			node.Else = els
		}
	}
	return node, nil
}

func (p *parser) parseCase() (Stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume case
		return nil, err
	}
	subj, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	node := &Case{Subject: subj, Pos: pos}
	if err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	// An empty default body parses to nil, so node.Default cannot tell
	// whether a default arm was seen.
	hasDefault := false
	for {
		if ok, err := p.accept(tokPunct, "}"); err != nil {
			return nil, err
		} else if ok {
			return node, nil
		}
		if ok, err := p.accept(tokKeyword, "default"); err != nil {
			return nil, err
		} else if ok {
			if err := p.expect(tokPunct, ":"); err != nil {
				return nil, err
			}
			body, err := p.parseStmtBlock()
			if err != nil {
				return nil, err
			}
			if hasDefault {
				return nil, p.errorf("duplicate default arm")
			}
			hasDefault = true
			node.Default = body
			continue
		}
		armPos := p.tok.pos
		if err := p.expect(tokKeyword, "when"); err != nil {
			return nil, err
		}
		arm := &CaseArm{Pos: armPos}
		for {
			lbl, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			arm.Labels = append(arm.Labels, lbl)
			if ok, err := p.accept(tokPunct, ","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expect(tokPunct, ":"); err != nil {
			return nil, err
		}
		body, err := p.parseStmtBlock()
		if err != nil {
			return nil, err
		}
		arm.Body = body
		node.Arms = append(node.Arms, arm)
	}
}

func (p *parser) parseFor() (Stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume for
		return nil, err
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokKeyword, "in"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokNumber {
		return nil, p.errorf("expected loop lower bound, found %s", p.tok)
	}
	lo := int(p.tok.num)
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expect(tokPunct, ".."); err != nil {
		return nil, err
	}
	if p.tok.kind != tokNumber {
		return nil, p.errorf("expected loop upper bound, found %s", p.tok)
	}
	hi := int(p.tok.num)
	if err := p.advance(); err != nil {
		return nil, err
	}
	if hi < lo {
		return nil, &Error{Pos: pos, Msg: fmt.Sprintf("empty loop range %d..%d", lo, hi)}
	}
	body, err := p.parseStmtBlock()
	if err != nil {
		return nil, err
	}
	return &For{Var: name, Lo: lo, Hi: hi, Body: body, Pos: pos}, nil
}

// Expression grammar, lowest precedence first:
//
//	orExpr   := xorExpr  (("or"|"nor") xorExpr)*
//	xorExpr  := andExpr  (("xor"|"xnor") andExpr)*
//	andExpr  := cmpExpr  (("and"|"nand") cmpExpr)*
//	cmpExpr  := catExpr  (("=="|"!="|"<"|"<="|">"|">=") catExpr)?
//	catExpr  := shiftExpr ("++" shiftExpr)*
//	shiftExpr:= addExpr  (("<<"|">>") addExpr)*
//	addExpr  := mulExpr  (("+"|"-") mulExpr)*
//	mulExpr  := unary    ("*" unary)*
//	unary    := ("not"|"-"|"rand"|"ror"|"rxor") unary | postfix
//	postfix  := primary ("[" expr ("]" | ":" num "]") )*
//	primary  := number | ident | "(" expr ")"
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) binLevel(sub func() (Expr, error), ops map[string]BinOp, kw bool) (Expr, error) {
	x, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		var matched string
		var op BinOp
		kind := tokPunct
		if kw {
			kind = tokKeyword
		}
		if p.tok.kind == kind {
			if o, ok := ops[p.tok.text]; ok {
				matched, op = p.tok.text, o
			}
		}
		if matched == "" {
			return x, nil
		}
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		y, err := sub()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: op, X: x, Y: y, Pos: pos}
	}
}

func (p *parser) parseOr() (Expr, error) {
	return p.binLevel(p.parseXor, map[string]BinOp{"or": OpOr, "nor": OpNor}, true)
}

func (p *parser) parseXor() (Expr, error) {
	return p.binLevel(p.parseAnd, map[string]BinOp{"xor": OpXor, "xnor": OpXnor}, true)
}

func (p *parser) parseAnd() (Expr, error) {
	return p.binLevel(p.parseCmp, map[string]BinOp{"and": OpAnd, "nand": OpNand}, true)
}

var cmpOps = map[string]BinOp{
	"==": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseCmp() (Expr, error) {
	x, err := p.parseCat()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokPunct {
		if op, ok := cmpOps[p.tok.text]; ok {
			pos := p.tok.pos
			if err := p.advance(); err != nil {
				return nil, err
			}
			y, err := p.parseCat()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, X: x, Y: y, Pos: pos}, nil
		}
	}
	return x, nil
}

func (p *parser) parseCat() (Expr, error) {
	return p.binLevel(p.parseShift, map[string]BinOp{"++": OpConcat}, false)
}

func (p *parser) parseShift() (Expr, error) {
	return p.binLevel(p.parseAdd, map[string]BinOp{"<<": OpShl, ">>": OpShr}, false)
}

func (p *parser) parseAdd() (Expr, error) {
	return p.binLevel(p.parseMul, map[string]BinOp{"+": OpAdd, "-": OpSub}, false)
}

func (p *parser) parseMul() (Expr, error) {
	return p.binLevel(p.parseUnary, map[string]BinOp{"*": OpMul}, false)
}

func (p *parser) parseUnary() (Expr, error) {
	pos := p.tok.pos
	if p.tok.kind == tokKeyword {
		var op UnOp
		switch p.tok.text {
		case "not":
			op = OpNot
		case "rand":
			op = OpRedAnd
		case "ror":
			op = OpRedOr
		case "rxor":
			op = OpRedXor
		default:
			return p.parsePostfix()
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: op, X: x, Pos: pos}, nil
	}
	if p.tok.kind == tokPunct && p.tok.text == "-" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: OpNeg, X: x, Pos: pos}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		if p.tok.kind != tokPunct || p.tok.text != "[" {
			return x, nil
		}
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if ok, err := p.accept(tokPunct, ":"); err != nil {
			return nil, err
		} else if ok {
			hiLit, okLit := first.(*Lit)
			if !okLit {
				return nil, &Error{Pos: pos, Msg: "slice bounds must be literal"}
			}
			if p.tok.kind != tokNumber {
				return nil, p.errorf("expected slice low bound, found %s", p.tok)
			}
			lo := int(p.tok.num)
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect(tokPunct, "]"); err != nil {
				return nil, err
			}
			hi := int(hiLit.Raw)
			if hi < lo {
				return nil, &Error{Pos: pos, Msg: fmt.Sprintf("bad slice bounds [%d:%d]", hi, lo)}
			}
			x = &SliceExpr{X: x, Hi: hi, Lo: lo, Pos: pos}
		} else {
			if err := p.expect(tokPunct, "]"); err != nil {
				return nil, err
			}
			x = &Index{X: x, I: first, Pos: pos}
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	pos := p.tok.pos
	switch p.tok.kind {
	case tokNumber:
		v, w := p.tok.num, p.tok.numWidth
		if err := p.advance(); err != nil {
			return nil, err
		}
		lit := &Lit{Raw: v, Pos: pos}
		if w > 0 {
			lit.Sized = true
			lit.Width = w
			lit.Val = bitvec.New(v, w)
		}
		return lit, nil
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Ref{Name: name, Pos: pos}, nil
	case tokPunct:
		if p.tok.text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return x, p.expect(tokPunct, ")")
		}
	}
	return nil, p.errorf("expected expression, found %s", p.tok)
}
