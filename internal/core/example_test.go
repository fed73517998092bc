package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// ExampleEngine schedules the paper's Figure-1 worked example with
// simulated evolution, stepping the engine 200 generations, and prints the
// best schedule length found.
func ExampleEngine() {
	w := workload.Figure1()
	e, err := core.NewEngine(w.Graph, w.System, core.Options{
		Bias: -0.2, // small problem: thorough search (§4.4)
		Seed: 1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	for i := 0; i < 200; i++ {
		e.Step()
	}
	fmt.Printf("schedule length %.0f\n", e.Result().BestMakespan)
	// Output:
	// schedule length 2300
}

// ExampleOptimalFinishTimes reproduces the paper's §4.3 walkthrough: the
// optimal finish-time bound O₄ of subtask s4 is 1835.
func ExampleOptimalFinishTimes() {
	w := workload.Figure1()
	o := core.OptimalFinishTimes(w.Graph, w.System)
	fmt.Printf("O4 = %.0f\n", o[4])
	// Output:
	// O4 = 1835
}
