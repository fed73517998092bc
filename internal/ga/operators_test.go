package ga

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// testEngine builds an engine over a random workload for operator tests.
func testEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	w := workload.MustGenerate(workload.Params{
		Tasks: 25, Machines: 5, Connectivity: 3, Heterogeneity: 6, CCR: 0.8, Seed: seed,
	})
	e, err := NewEngine(w.Graph, w.System, Options{Seed: seed})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

// crossOrders is the test-side wrapper over crossOrdersInto: it allocates
// the destination and scratch the engine normally owns.
func crossOrders(a, b []taskgraph.TaskID, cut int) []taskgraph.TaskID {
	out := make([]taskgraph.TaskID, len(a))
	crossOrdersInto(out, make([]bool, len(a)), a, b, cut)
	return out
}

func TestCrossOrdersKeepsPermutation(t *testing.T) {
	a := []taskgraph.TaskID{0, 1, 2, 3, 4}
	b := []taskgraph.TaskID{0, 2, 1, 4, 3}
	out := crossOrders(a, b, 2)
	if len(out) != 5 {
		t.Fatalf("len = %d", len(out))
	}
	seen := make(map[taskgraph.TaskID]bool)
	for _, x := range out {
		if seen[x] {
			t.Fatalf("duplicate task %d in %v", x, out)
		}
		seen[x] = true
	}
	// Prefix preserved.
	if out[0] != 0 || out[1] != 1 {
		t.Errorf("prefix not preserved: %v", out)
	}
	// Suffix in b's relative order: 2, 4, 3.
	if out[2] != 2 || out[3] != 4 || out[4] != 3 {
		t.Errorf("suffix order = %v, want [2 4 3]", out[2:])
	}
}

// TestPropertyOrderCrossoverPreservesTopology is the validity proof of the
// paper's claim, checked mechanically: crossing two topological orders at
// any cut yields topological orders.
func TestPropertyOrderCrossoverPreservesTopology(t *testing.T) {
	f := func(seed int64) bool {
		w := workload.MustGenerate(workload.Params{
			Tasks:         2 + int(uint64(seed)%40),
			Machines:      3,
			Connectivity:  2.5,
			Heterogeneity: 4,
			CCR:           0.5,
			Seed:          seed,
		})
		rng := rand.New(rand.NewSource(seed ^ 0xc0))
		a := w.Graph.RandomTopoOrder(rng)
		b := w.Graph.RandomTopoOrder(rng)
		cut := 1 + rng.Intn(len(a)-1)
		if len(a) < 2 {
			return true
		}
		return w.Graph.IsTopological(crossOrders(a, b, cut)) &&
			w.Graph.IsTopological(crossOrders(b, a, cut))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOrderMutationPreservesTopology(t *testing.T) {
	e := testEngine(t, 3)
	c := e.pop[0]
	for i := 0; i < 300; i++ {
		e.orderMutation(c)
		if !e.g.IsTopological(c.order) {
			t.Fatalf("order mutation %d broke topology", i)
		}
	}
}

func TestMatchingCrossoverSwapsTails(t *testing.T) {
	e := testEngine(t, 4)
	c1, c2 := e.pop[0].clone(), e.pop[1].clone()
	orig1 := append([]taskgraph.MachineID(nil), c1.assign...)
	orig2 := append([]taskgraph.MachineID(nil), c2.assign...)
	e.matchingCrossover(c1, c2)
	// Every position holds either its own original value (prefix) or the
	// other parent's (suffix), and the boundary is a single cut.
	n := len(orig1)
	cut := -1
	for i := 0; i < n; i++ {
		swapped := c1.assign[i] == orig2[i] && c2.assign[i] == orig1[i]
		kept := c1.assign[i] == orig1[i] && c2.assign[i] == orig2[i]
		if !swapped && !kept {
			t.Fatalf("position %d neither kept nor swapped", i)
		}
		if swapped && orig1[i] != orig2[i] && cut == -1 {
			cut = i
		}
		if kept && orig1[i] != orig2[i] && cut != -1 {
			t.Fatalf("kept position %d after cut %d", i, cut)
		}
	}
}

func TestMachineMutationStaysInRange(t *testing.T) {
	e := testEngine(t, 5)
	c := e.pop[0]
	e.opts.MutationRate = 1 // force both mutations
	for i := 0; i < 200; i++ {
		e.mutate(c)
		for t2, m := range c.assign {
			if m < 0 || int(m) >= e.sys.NumMachines() {
				t.Fatalf("task %d assigned machine %d out of range", t2, m)
			}
		}
		if !e.g.IsTopological(c.order) {
			t.Fatal("mutation broke topology")
		}
	}
}

func TestSpinPicksFitter(t *testing.T) {
	e := testEngine(t, 6)
	// Give chromosome 0 overwhelming fitness and everything else zero.
	for i := range e.fitness {
		e.fitness[i] = 0
	}
	e.fitness[0] = 1
	counts := 0
	for i := 0; i < 100; i++ {
		if e.spin(1) == e.pop[0] {
			counts++
		}
	}
	if counts != 100 {
		t.Errorf("spin picked the only-fit chromosome %d/100 times", counts)
	}
}

func TestSpinZeroWheelUniform(t *testing.T) {
	e := testEngine(t, 7)
	// All-zero fitness: spin must still terminate and return someone.
	for i := 0; i < 50; i++ {
		if e.spin(0) == nil {
			t.Fatal("spin returned nil")
		}
	}
}
