// Operator efficiency: regenerates the paper's Table 1 ("Operator Fault
// Coverage Efficiency") — for each benchmark circuit and mutation
// operator, the ΔFC%, ΔL% and NLFCE of validation data generated from
// that operator's mutants alone, measured against a pseudo-random
// baseline on the synthesized netlist.
//
//	go run ./examples/operator_efficiency [circuits...]
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/circuits"
	"repro/internal/core"
)

func main() {
	names := os.Args[1:]
	if len(names) == 0 {
		names = circuits.PaperBenchmarks()
	}
	var rows []core.Table1Row
	for _, name := range names {
		c, err := circuits.Load(name)
		if err != nil {
			log.Fatal(err)
		}
		flow, err := core.NewFlow(c, core.Config{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		profiles, err := flow.ProfileOperators()
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, core.Table1Row{Circuit: name, Profiles: profiles})
	}
	fmt.Print(core.FormatTable1(rows))
	fmt.Println()
	fmt.Println("Paper's qualitative claims to check against the rows above:")
	fmt.Println("  - LOR is the least efficient operator wherever it applies;")
	fmt.Println("  - increasing order LOR < VR < CVR, with CR on top when the")
	fmt.Println("    description declares constants (b01, b03);")
	fmt.Println("  - mutation data beats equal-length pseudo-random data")
	fmt.Println("    (positive ΔFC% and ΔL%).")
}
