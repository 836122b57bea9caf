// Quickstart: the full mutation-sampling pipeline on one circuit, end to
// end — parse, mutate, sample, generate validation data, score it, and
// re-use it as a structural stuck-at test set.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/circuits"
	"repro/internal/faultsim"
	"repro/internal/metrics"
	"repro/internal/mutation"
	"repro/internal/mutscore"
	"repro/internal/sampling"
	"repro/internal/synth"
	"repro/internal/tpg"
)

func main() {
	// 1. Load a behavioral circuit (the ITC'99 b01 serial-flow comparator
	//    analog) and synthesize its gate-level netlist.
	circuit := circuits.MustLoad("b01")
	nl, err := synth.Synthesize(circuit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s: %v\n", circuit.Name, nl.Stats())

	// 2. Generate the mutant population with all ten operators.
	mutants := mutation.Generate(circuit)
	fmt.Printf("mutants: %d total, by operator %v\n",
		len(mutants), mutation.CountByOperator(mutants))

	// 3. Sample 10% of the mutants (here: classical random sampling; see
	//    examples/sampling_comparison for the paper's weighted strategy).
	n := sampling.SampleSize(len(mutants), 0.10)
	sample := sampling.Random(mutants, n, 42)
	fmt.Printf("sampled %d mutants\n", len(sample))

	// 4. Generate validation data killing the sampled mutants. A Session
	// compiles the targets once and can run any number of campaigns (per
	// -run seeds, modes, subsets). tpg.MutationTests is the one-shot
	// shorthand for exactly this.
	session, err := tpg.NewSession(circuit, sample, &tpg.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	tg, err := session.Generate(nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validation data: %d cycles, kills %d/%d sampled mutants\n",
		len(tg.Seq), tg.KilledCount(), len(sample))

	// The same data doubles as a structural stuck-at test set: fault
	// simulate it once. The simulator picks its own lane widths (up to
	// 512 fault machines per pass on a sequential circuit); Workers,
	// Progress and Ctx (cancellation) ride on the embedded
	// engine.Options surface. The coverage curve has one point per
	// cycle, so the coverage after each accepted segment is the curve at
	// that segment's end.
	fsim, err := faultsim.New(nl, nil)
	if err != nil {
		log.Fatal(err)
	}
	mutRes, err := fsim.Run(tpg.ToPatterns(circuit, tg.Seq))
	if err != nil {
		log.Fatal(err)
	}
	curve := mutRes.Curve()
	fmt.Printf("fault coverage grew over %d accepted segments: %.1f%% -> %.1f%%\n",
		len(tg.Segments),
		100*curve[tg.Segments[0]-1], 100*curve[tg.Segments[len(tg.Segments)-1]-1])

	// 5. Mutation score over the FULL population (validation quality). A
	// Scorer scores a session's population with the programs the session
	// compiled and owns the scoring scratch, so both measurements here
	// (and any further sequences you score) reuse the same machines. This
	// session only compiles; core.Flow generates and scores on one
	// full-population session, so it compiles the population once.
	full, err := tpg.NewSession(circuit, mutants, nil)
	if err != nil {
		log.Fatal(err)
	}
	scorer := mutscore.Config{}.NewScorer(full)
	killed, err := scorer.Kills(tg.Seq)
	if err != nil {
		log.Fatal(err)
	}
	equiv, err := scorer.EstimateEquivalence(&mutscore.EquivalenceOptions{Budget: 1024, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mutation score on all mutants: %.2f%%\n",
		100*mutscore.Score(killed, equiv))

	// 6. Stuck-at coverage of the validation data, from the fault
	// simulation in step 4.
	fmt.Printf("stuck-at coverage of validation data: %.1f%% of %d collapsed faults\n",
		100*mutRes.Coverage(), len(mutRes.Faults))

	// 7. Compare against a raw pseudo-random test set (the paper's
	// baseline) via the NLFCE metric. Run restarts the same simulator
	// session — the armed fault machines are recycled, not rebuilt — and
	// returns a caller-owned result, so the restart can't disturb mutRes.
	randRes, err := fsim.Run(tpg.ToPatterns(circuit, tpg.RawRandomSequence(circuit, 2048, 7)))
	if err != nil {
		log.Fatal(err)
	}
	eff := metrics.Compare(mutRes.Curve(), randRes.Curve())
	fmt.Printf("vs pseudo-random: %v\n", eff)
}
