package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteBench renders the netlist in the ISCAS-89 ".bench" interchange
// format:
//
//	INPUT(a)
//	OUTPUT(y)
//	n3 = AND(a, b)
//	y  = NOT(n3)
//	q  = DFF(d)
//
// Gate names are taken from Gate.Name when present and synthesized as
// "n<id>" otherwise. POs that alias another named gate are emitted as BUF
// lines so every OUTPUT name resolves.
func WriteBench(w io.Writer, n *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", n.Name)
	fmt.Fprintf(bw, "# %s\n", n.Stats())

	name := benchNames(n)

	for _, id := range n.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", name[id])
	}
	// POs whose name differs from the driving gate's emitted name need a
	// BUF alias line. Several POs may alias the same gate, so collect
	// (name, gate) pairs rather than a per-gate map.
	type alias struct {
		name string
		gate int
	}
	var outAliases []alias
	seenAlias := make(map[string]bool)
	for i, id := range n.POs {
		poName := n.PONames[i]
		fmt.Fprintf(bw, "OUTPUT(%s)\n", poName)
		if name[id] != poName && !seenAlias[poName] {
			seenAlias[poName] = true
			outAliases = append(outAliases, alias{name: poName, gate: id})
		}
	}
	for _, g := range n.Gates {
		switch g.Type {
		case PI:
			continue
		case Const0:
			fmt.Fprintf(bw, "%s = CONST0()\n", name[g.ID])
		case Const1:
			fmt.Fprintf(bw, "%s = CONST1()\n", name[g.ID])
		case DFF:
			fmt.Fprintf(bw, "%s = DFF(%s)\n", name[g.ID], name[g.Fanin[0]])
			if g.Init&1 == 1 {
				// Power-on value directive; plain .bench readers skip the
				// comment, ReadBench honors it.
				fmt.Fprintf(bw, "# @init %s 1\n", name[g.ID])
			}
		default:
			fanins := make([]string, len(g.Fanin))
			for j, f := range g.Fanin {
				fanins[j] = name[f]
			}
			fmt.Fprintf(bw, "%s = %s(%s)\n", name[g.ID], g.Type, strings.Join(fanins, ", "))
		}
	}
	// Alias BUFs for POs whose gate already carries a different name.
	sort.Slice(outAliases, func(i, j int) bool { return outAliases[i].name < outAliases[j].name })
	for _, a := range outAliases {
		fmt.Fprintf(bw, "%s = BUF(%s)\n", a.name, name[a.gate])
	}
	return bw.Flush()
}

// benchNames assigns a unique textual name to every gate.
func benchNames(n *Netlist) []string {
	used := make(map[string]bool)
	names := make([]string, len(n.Gates))
	for _, g := range n.Gates {
		if g.Name != "" && !used[g.Name] {
			names[g.ID] = g.Name
			used[g.Name] = true
		}
	}
	for _, g := range n.Gates {
		if names[g.ID] == "" {
			cand := fmt.Sprintf("n%d", g.ID)
			for used[cand] {
				cand = "x" + cand
			}
			names[g.ID] = cand
			used[cand] = true
		}
	}
	return names
}

// ReadBench parses the ".bench" format produced by WriteBench (and the
// common ISCAS-89 dialect: INPUT/OUTPUT declarations and gate assignments
// with AND/OR/NAND/NOR/XOR/XNOR/NOT/BUF/BUFF/DFF/CONST0/CONST1).
func ReadBench(r io.Reader, name string) (*Netlist, error) {
	n := New(name)
	type pending struct {
		target string
		op     string
		typ    GateType // resolved gate type (unused for DFF)
		args   []string
		line   int
	}
	var defs []pending
	var outputs []string
	ids := make(map[string]int)

	inits := make(map[string]uint64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "# @init ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# @init "))
			if len(fields) == 2 && fields[1] == "1" {
				inits[fields[0]] = 1
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "INPUT(") && strings.HasSuffix(line, ")"):
			nm := strings.TrimSuffix(strings.TrimPrefix(line, "INPUT("), ")")
			nm = strings.TrimSpace(nm)
			if _, dup := ids[nm]; dup {
				return nil, fmt.Errorf("bench line %d: duplicate definition of %q", lineNo, nm)
			}
			ids[nm] = n.AddInput(nm)
		case strings.HasPrefix(line, "OUTPUT(") && strings.HasSuffix(line, ")"):
			nm := strings.TrimSuffix(strings.TrimPrefix(line, "OUTPUT("), ")")
			outputs = append(outputs, strings.TrimSpace(nm))
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("bench line %d: cannot parse %q", lineNo, line)
			}
			target := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			if open < 0 || !strings.HasSuffix(rhs, ")") {
				return nil, fmt.Errorf("bench line %d: cannot parse gate %q", lineNo, rhs)
			}
			op := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			argStr := strings.TrimSuffix(rhs[open+1:], ")")
			var args []string
			for _, a := range strings.Split(argStr, ",") {
				a = strings.TrimSpace(a)
				if a != "" {
					args = append(args, a)
				}
			}
			d := pending{target: target, op: op, args: args, line: lineNo}
			if op != "DFF" {
				t, err := benchGateType(op, len(args))
				if err != nil {
					return nil, fmt.Errorf("bench line %d: %v", lineNo, err)
				}
				d.typ = t
			}
			defs = append(defs, d)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// First pass: reject a second definition of any net, and create DFFs
	// (they may be referenced before their D nets exist).
	defined := make(map[string]bool, len(defs))
	for _, d := range defs {
		if _, dup := ids[d.target]; dup || defined[d.target] {
			return nil, fmt.Errorf("bench line %d: duplicate definition of %q", d.line, d.target)
		}
		defined[d.target] = true
		if d.op == "DFF" {
			ids[d.target] = n.AddDFF(d.target, inits[d.target])
		}
	}
	// Combinational gates must be created after their fanins; iterate until
	// all are resolved (the format permits forward references).
	remaining := make([]pending, 0, len(defs))
	for _, d := range defs {
		if d.op != "DFF" {
			remaining = append(remaining, d)
		}
	}
	for len(remaining) > 0 {
		progress := false
		var next []pending
		for _, d := range remaining {
			ready := true
			fanin := make([]int, len(d.args))
			for j, a := range d.args {
				id, ok := ids[a]
				if !ok {
					ready = false
					break
				}
				fanin[j] = id
			}
			if !ready {
				next = append(next, d)
				continue
			}
			id := n.AddGate(d.typ, fanin...)
			n.Gates[id].Name = d.target
			ids[d.target] = id
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("bench: unresolved references (combinational cycle or undefined nets) in %d definitions, e.g. %q", len(next), next[0].target)
		}
		remaining = next
	}
	// Connect DFF data inputs.
	for _, d := range defs {
		if d.op != "DFF" {
			continue
		}
		if len(d.args) != 1 {
			return nil, fmt.Errorf("bench line %d: DFF needs 1 input", d.line)
		}
		src, ok := ids[d.args[0]]
		if !ok {
			return nil, fmt.Errorf("bench line %d: DFF input %q undefined", d.line, d.args[0])
		}
		n.SetDFFInput(ids[d.target], src)
	}
	for _, o := range outputs {
		id, ok := ids[o]
		if !ok {
			return nil, fmt.Errorf("bench: OUTPUT(%s) never defined", o)
		}
		n.MarkOutput(id, o)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// benchGateType resolves a gate operator and its fanin count to the gate
// type AddGate builds, rejecting arities AddGate would refuse so that a
// malformed line is a parse error rather than a panic.
func benchGateType(op string, fanins int) (GateType, error) {
	var t GateType
	switch op {
	case "AND":
		t = And
	case "OR":
		t = Or
	case "NAND":
		t = Nand
	case "NOR":
		t = Nor
	case "XOR":
		t = Xor
	case "XNOR":
		t = Xnor
	case "NOT", "INV":
		t = Not
	case "BUF", "BUFF":
		t = Buf
	case "CONST0":
		t = Const0
	case "CONST1":
		t = Const1
	default:
		return 0, fmt.Errorf("unknown gate type %q", op)
	}
	// Single-input AND/OR degrade to BUF; this appears in some benchmarks.
	if fanins == 1 && (t == And || t == Or) {
		t = Buf
	}
	if fanins == 1 && (t == Nand || t == Nor) {
		t = Not
	}
	switch t {
	case Const0, Const1:
		if fanins != 0 {
			return 0, fmt.Errorf("%s takes no inputs, got %d", op, fanins)
		}
	case Buf, Not:
		if fanins != 1 {
			return 0, fmt.Errorf("%s needs exactly 1 input, got %d", op, fanins)
		}
	default:
		if fanins < 2 {
			return 0, fmt.Errorf("%s needs at least 2 inputs, got %d", op, fanins)
		}
	}
	return t, nil
}
