package core

import (
	"fmt"
	"strings"
)

// Table1Row pairs a circuit with its operator profiles.
type Table1Row struct {
	Circuit  string
	Profiles []OperatorProfile
}

// FormatTable1 renders per-operator efficiency profiles in the layout of
// the paper's Table 1 ("Operator Fault Coverage Efficiency").
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table 1: Operator Fault Coverage Efficiency\n")
	fmt.Fprintf(&sb, "%-8s %-5s %8s %8s %8s %10s %7s %7s\n",
		"Circuit", "Op", "Mutants", "ΔFC%", "ΔL%", "NLFCE", "MFC%", "RFC%")
	for _, row := range rows {
		for i, p := range row.Profiles {
			name := ""
			if i == 0 {
				name = row.Circuit
			}
			fmt.Fprintf(&sb, "%-8s %-5s %8d %8.2f %8.2f %+10.1f %7.2f %7.2f\n",
				name, p.Op, p.Mutants,
				p.Eff.DeltaFCPts, p.Eff.DeltaLPct, p.Eff.NLFCE,
				100*p.Eff.MFC, 100*p.Eff.RFC)
		}
	}
	return sb.String()
}

// FormatTable2 renders sampling comparisons in the layout of the paper's
// Table 2 ("Our Testing Strategy Vs Mutant Sampling").
func FormatTable2(cmps []*SamplingComparison) string {
	var sb strings.Builder
	sb.WriteString("Table 2: Test-oriented sampling vs random sampling\n")
	fmt.Fprintf(&sb, "%-8s %7s | %-22s | %-22s\n", "", "", "test-oriented", "random")
	fmt.Fprintf(&sb, "%-8s %7s | %8s %6s %6s | %8s %6s %6s\n",
		"Circuit", "Sample", "MS%", "NLFCE", "Len", "MS%", "NLFCE", "Len")
	for _, c := range cmps {
		fmt.Fprintf(&sb, "%-8s %7d | %8.2f %+6.0f %6d | %8.2f %+6.0f %6d\n",
			c.Circuit, c.TestOriented.SampleSize,
			c.TestOriented.MSPct, c.TestOriented.Eff.NLFCE, c.TestOriented.SeqLen,
			c.Random.MSPct, c.Random.Eff.NLFCE, c.Random.SeqLen)
	}
	return sb.String()
}

// FormatTopoff renders E3 results: ATPG effort with and without the
// mutation-derived pre-test.
func FormatTopoff(results []*TopoffResult) string {
	var sb strings.Builder
	sb.WriteString("E3: ATPG effort with and without validation-data pre-test\n")
	fmt.Fprintf(&sb, "%-8s | %-26s | %-12s | %-26s\n",
		"", "ATPG from scratch", "pre-test", "ATPG top-off after pre-test")
	fmt.Fprintf(&sb, "%-8s | %6s %8s %9s | %5s %5s | %6s %8s %9s\n",
		"Circuit", "vecs", "backtr", "calls", "len", "FC%", "vecs", "backtr", "calls")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-8s | %6d %8d %9d | %5d %5.1f | %6d %8d %9d\n",
			r.Circuit,
			len(r.Baseline.Vectors), r.Baseline.Backtracks, r.Baseline.PodemCalls,
			r.PreTestLen, 100*r.PreTestCoverage,
			len(r.Topoff.Vectors), r.Topoff.Backtracks, r.Topoff.PodemCalls)
	}
	return sb.String()
}

// FormatSeqTopoff renders E4 results: sequential time-frame ATPG effort
// with and without the mutation-derived pre-test.
func FormatSeqTopoff(results []*SeqTopoffResult) string {
	var sb strings.Builder
	sb.WriteString("E4: sequential ATPG (time-frame expansion) with and without pre-test\n")
	fmt.Fprintf(&sb, "%-8s %6s | %-28s | %-12s | %-28s\n",
		"", "", "ATPG from scratch", "pre-test", "ATPG top-off after pre-test")
	fmt.Fprintf(&sb, "%-8s %6s | %6s %8s %8s %4s | %5s %5s | %6s %8s %8s %4s\n",
		"Circuit", "frames", "tests", "cycles", "backtr", "FC%", "len", "FC%", "tests", "cycles", "backtr", "FC%")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-8s %6d | %6d %8d %8d %4.0f | %5d %5.1f | %6d %8d %8d %4.0f\n",
			r.Circuit, r.Frames,
			len(r.Baseline.Tests), r.Baseline.TotalCycles(), r.Baseline.Backtracks, 100*r.Baseline.Coverage(),
			r.PreTestLen, 100*r.PreTestCoverage,
			len(r.Topoff.Tests), r.Topoff.TotalCycles(), r.Topoff.Backtracks, 100*r.Topoff.Coverage())
	}
	return sb.String()
}
