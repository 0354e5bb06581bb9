// Hardening demonstrates the deployment decision the paper's introduction
// motivates: given per-bit sequential AVFs from SART, decide which flops
// to replace with low-SER (SEUT/BISER-class) cells to hit an SDC FIT
// target at minimum cost — and show how much cheaper the AVF-guided plan
// is than hardening uniformly.
//
//	go run ./examples/hardening [-target 0.3]
package main

import (
	"flag"
	"fmt"
	"log"

	"seqavf/internal/experiments"
)

func main() {
	target := flag.Float64("target", 0.3, "fractional sequential-FIT reduction to plan for")
	flag.Parse()

	cfg := experiments.DefaultSetup()
	cfg.SuiteSize = 4
	env, err := experiments.Setup(cfg)
	if err != nil {
		log.Fatal(err)
	}
	study, err := experiments.Hardening(env, []float64{*target})
	if err != nil {
		log.Fatal(err)
	}
	plan, cell := study.Points[0], study.Params
	savedPerAVF := study.FIT.IntrinsicSeq * (1 - cell.RateFactor)

	fmt.Printf("target: %.0f%% sequential SDC FIT reduction with %.0fx hardened cells\n\n",
		100**target, 1/cell.RateFactor)
	fmt.Printf("%-28s %-6s %-8s %-10s\n", "node", "bits", "avg AVF", "saved FIT")
	show := plan.Nodes
	if len(show) > 12 {
		show = show[:12]
	}
	for _, n := range show {
		fmt.Printf("%-28s %-6d %-8.3f %-10.2f\n", n.Key, n.Bits, n.Gain/float64(n.Bits), n.Gain*savedPerAVF)
	}
	if len(plan.Nodes) > len(show) {
		fmt.Printf("... and %d more nodes\n", len(plan.Nodes)-len(show))
	}
	fmt.Printf("\nplan: harden %d of %d sequential bits (%.1f%%, cost %.0f AU)\n",
		plan.HardenedBits, plan.SeqBits, 100*plan.GuidedBitsFrac, float64(plan.HardenedBits)*cell.CostPerBit)
	fmt.Printf("sequential SDC FIT: %.1f -> %.1f (%.0f%% reduction)\n",
		plan.BaseFIT, plan.PlannedFIT, 100*plan.Achieved)
	// Hardening the same bit count uniformly removes the average AVF per
	// bit: the closed-form expectation of an AVF-blind plan.
	fmt.Printf("uniform (AVF-blind) hardening of the same bit count would leave %.1f\n",
		plan.BaseFIT*(1-plan.GuidedBitsFrac*(1-cell.RateFactor)))
}
