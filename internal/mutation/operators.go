// Package mutation implements mutation analysis for MHDL circuits: the ten
// mutation operators (a reconstruction of the VHDL operator set of
// Al-Hayek & Robach, JETTA 1999, which the paper builds on), deterministic
// mutant enumeration, and mutant construction.
//
// A mutant is the original circuit with exactly one small, syntactically
// valid modification, built as a path copy that shares every untouched
// node with the original (in the spirit of mutant schemata: Untch, Offutt
// and Harrold, ISSTA 1993). Enumeration is deterministic: the same
// circuit always yields the same mutant list in the same order, which
// makes sampling experiments reproducible.
package mutation

import "fmt"

// Operator identifies a mutation operator.
type Operator string

// The ten mutation operators. LOR, VR, CVR and CR are the four the paper's
// evaluation tables report; the remaining six complete the set of ten that
// the paper's reference [3] defines for VHDL.
const (
	LOR Operator = "LOR" // logical operator replacement: and/or/xor/nand/nor/xnor
	ROR Operator = "ROR" // relational operator replacement: == != < <= > >=
	AOR Operator = "AOR" // arithmetic operator replacement: + - *
	SOR Operator = "SOR" // shift operator replacement: << >>
	CNR Operator = "CNR" // condition negation (if branch swap)
	UOI Operator = "UOI" // unary operator insertion: wrap a signal read in not
	SDL Operator = "SDL" // statement deletion: remove one assignment
	VR  Operator = "VR"  // variable replacement: signal read -> same-width signal
	CVR Operator = "CVR" // constant-for-variable replacement: signal read -> constant
	CR  Operator = "CR"  // constant replacement: perturb a literal or named constant
)

// AllOperators returns the full operator set in canonical order.
func AllOperators() []Operator {
	return []Operator{LOR, ROR, AOR, SOR, CNR, UOI, SDL, VR, CVR, CR}
}

// Valid reports whether op is one of the ten defined operators.
func (op Operator) Valid() bool {
	switch op {
	case LOR, ROR, AOR, SOR, CNR, UOI, SDL, VR, CVR, CR:
		return true
	}
	return false
}

// ParseOperator converts a string such as "cvr" to an Operator.
func ParseOperator(s string) (Operator, error) {
	for _, op := range AllOperators() {
		if string(op) == s || string(op) == upper(s) {
			return op, nil
		}
	}
	return "", fmt.Errorf("mutation: unknown operator %q", s)
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}
