package schedule_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// Differential tests: DeltaEvaluator must agree bit-for-bit with the full
// Evaluator — on makespan, on the total-finish tie-break criterion, and
// on every per-task finish time — across random workloads, random move
// sequences, and the checkpoint-invalidation edge cases (moves touching
// index 0, the last index, and q == idx).

// assertAgree compares the delta evaluation of moving idx→q on machine m
// against a full evaluation of the materialized moved string.
func assertAgree(t *testing.T, w *workload.Workload, base schedule.String, idx, q int, m taskgraph.MachineID) schedule.String {
	t.Helper()
	full := schedule.NewEvaluator(w.Graph, w.System)
	delta := schedule.NewDeltaEvaluator(w.Graph, w.System)
	delta.Pin(base)

	moved := schedule.Moved(base, idx, q, m)
	wantMs, wantTotal := full.MakespanTotal(moved)
	wantFin := make([]float64, len(base))
	full.FinishInto(moved, wantFin)

	gotMs, gotTotal, ok := delta.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
	if !ok {
		t.Fatalf("MoveMakespan(%d,%d,m%d) aborted with NoBound", idx, q, m)
	}
	if gotMs != wantMs {
		t.Fatalf("MoveMakespan(%d,%d,m%d) = %v, full evaluator %v", idx, q, m, gotMs, wantMs)
	}
	if gotTotal != wantTotal {
		t.Fatalf("MoveMakespan(%d,%d,m%d) total = %v, full evaluator %v", idx, q, m, gotTotal, wantTotal)
	}
	gotFin := make([]float64, len(base))
	delta.FinishInto(gotFin)
	for task := range gotFin {
		if gotFin[task] != wantFin[task] {
			t.Fatalf("MoveMakespan(%d,%d,m%d): finish[s%d] = %v, full evaluator %v",
				idx, q, m, task, gotFin[task], wantFin[task])
		}
	}
	return moved
}

func TestDeltaAgreesOnRandomMoves(t *testing.T) {
	f := func(seed int64) bool {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0xde17a))
		s := randomSolution(w, rng)
		pos := make([]int, len(s))
		for trial := 0; trial < 15; trial++ {
			idx := rng.Intn(len(s))
			s.Positions(pos)
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			q := lo + rng.Intn(hi-lo+1)
			m := taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
			// Each trial re-pins on the moved string, exercising pin → move
			// sequences the searches perform.
			s = assertAgree(t, w, s, idx, q, m)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDeltaEdgeCaseMoves(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1001} {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0xed6e))
		s := randomSolution(w, rng)
		n := len(s)
		pos := make([]int, n)
		s.Positions(pos)

		// q == idx with and without a machine change (pure reassignment and
		// the identity move), plus moves pinned to the string's ends.
		type mv struct{ idx, q int }
		cases := []mv{{0, 0}, {n - 1, n - 1}}
		lo, hi := schedule.ValidRange(w.Graph, s, pos, 0)
		cases = append(cases, mv{0, hi}, mv{0, lo})
		lo, hi = schedule.ValidRange(w.Graph, s, pos, n-1)
		cases = append(cases, mv{n - 1, lo}, mv{n - 1, hi})
		mid := n / 2
		lo, hi = schedule.ValidRange(w.Graph, s, pos, mid)
		cases = append(cases, mv{mid, mid}, mv{mid, lo}, mv{mid, hi})

		for _, c := range cases {
			for m := 0; m < w.System.NumMachines(); m++ {
				assertAgree(t, w, s, c.idx, c.q, taskgraph.MachineID(m))
			}
		}
	}
}

func TestDeltaSharedPrefixAgreesOnArbitraryStrings(t *testing.T) {
	f := func(seed int64) bool {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5a1e))
		base := randomSolution(w, rng)
		full := schedule.NewEvaluator(w.Graph, w.System)
		delta := schedule.NewDeltaEvaluator(w.Graph, w.System)
		delta.Pin(base)

		// Arbitrary other strings: unrelated orders (LCP likely 0), the
		// base itself (LCP n), and machine-perturbed copies (LCP = first
		// changed position).
		cands := []schedule.String{base.Clone(), randomSolution(w, rng)}
		pert := base.Clone()
		pert[rng.Intn(len(pert))].Machine = taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
		cands = append(cands, pert)

		for _, s := range cands {
			wantMs, wantTotal := full.MakespanTotal(s)
			wantFin := make([]float64, len(s))
			full.FinishInto(s, wantFin)
			gotMs, gotTotal, ok := delta.SharedPrefixMakespan(s, schedule.NoBound)
			if !ok || gotMs != wantMs || gotTotal != wantTotal {
				t.Fatalf("SharedPrefixMakespan = (%v,%v,%v), full evaluator (%v,%v)",
					gotMs, gotTotal, ok, wantMs, wantTotal)
			}
			gotFin := make([]float64, len(s))
			delta.FinishInto(gotFin)
			for task := range gotFin {
				if gotFin[task] != wantFin[task] {
					t.Fatalf("SharedPrefixMakespan: finish[s%d] = %v, full %v", task, gotFin[task], wantFin[task])
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeltaAdaptiveMakespanMatchesFull(t *testing.T) {
	f := func(seed int64) bool {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0xada9))
		full := schedule.NewEvaluator(w.Graph, w.System)
		delta := schedule.NewDeltaEvaluator(w.Graph, w.System)
		s := randomSolution(w, rng)
		for trial := 0; trial < 10; trial++ {
			if delta.Makespan(s) != full.Makespan(s) {
				return false
			}
			// Sometimes mutate a machine (long shared prefix), sometimes
			// draw a fresh string (forces a re-pin).
			if rng.Intn(2) == 0 {
				s = s.Clone()
				s[rng.Intn(len(s))].Machine = taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
			} else {
				s = randomSolution(w, rng)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeltaBoundNeverAbortsWinners(t *testing.T) {
	// The early-exit contract: a candidate with true makespan ≤ bound is
	// never aborted; an aborted candidate's true makespan strictly
	// exceeds the bound.
	f := func(seed int64) bool {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0xb0bd))
		s := randomSolution(w, rng)
		full := schedule.NewEvaluator(w.Graph, w.System)
		delta := schedule.NewDeltaEvaluator(w.Graph, w.System)
		delta.Pin(s)
		pos := make([]int, len(s))
		s.Positions(pos)
		bound := full.Makespan(s) // the base makespan as a plausible bound
		for trial := 0; trial < 20; trial++ {
			idx := rng.Intn(len(s))
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			q := lo + rng.Intn(hi-lo+1)
			m := taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
			want := full.Makespan(schedule.Moved(s, idx, q, m))
			got, _, ok := delta.MoveMakespan(idx, q, m, bound, schedule.NoBound)
			if ok && got != want {
				return false
			}
			if !ok && want <= bound {
				return false // aborted a candidate that was within bound
			}
			if ok && got > bound {
				return false // bound violated without abort
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeltaMachineOnlyMoveWithTiedFinish(t *testing.T) {
	// Regression: a machine-only move whose moved task finishes at
	// exactly its base time still diverges its successors through their
	// transfer times. The convergence cutoff must not fast-forward past
	// that. Construction: T0 costs 10 on both m0 and m1, feeds T3 on m2;
	// Tr(m0,m2) = 1 but Tr(m1,m2) = 100, and neither m0 nor m1 hosts any
	// later task, so the ready comparison alone cannot catch the change.
	b := taskgraph.NewBuilder(4)
	t0 := b.AddTask("")
	b.AddTask("")
	b.AddTask("")
	t3 := taskgraph.TaskID(3)
	b.AddTask("")
	b.AddItem(t0, t3, 1)
	g := b.MustBuild()

	exec := [][]float64{
		{10, 5, 5, 50}, // m0
		{10, 5, 5, 50}, // m1
		{90, 5, 5, 1},  // m2
	}
	transfer := [][]float64{
		{7},   // pair (m0,m1)
		{1},   // pair (m0,m2)
		{100}, // pair (m1,m2)
	}
	sys := platform.MustNew(4, 1, exec, transfer)

	base := schedule.String{
		{Task: 0, Machine: 0},
		{Task: 1, Machine: 2},
		{Task: 2, Machine: 2},
		{Task: 3, Machine: 2},
	}
	pos := make([]int, len(base))
	base.Positions(pos)
	for idx := range base {
		lo, hi := schedule.ValidRange(g, base, pos, idx)
		for q := lo; q <= hi; q++ {
			for m := 0; m < sys.NumMachines(); m++ {
				assertAgree(t, &workload.Workload{Graph: g, System: sys}, base, idx, q, taskgraph.MachineID(m))
			}
		}
	}
}

func TestDeltaAgreesOnHomogeneousIntegerPlatforms(t *testing.T) {
	// Exact finish-time ties are essentially impossible on random float
	// workloads but systematic on homogeneous integer platforms, which
	// is where tie-dependent shortcuts (the convergence cutoff, the
	// total-bound equality) must prove themselves.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWorkload(seed)
		n, l := w.Graph.NumTasks(), w.System.NumMachines()
		exec := make([][]float64, l)
		for m := range exec {
			exec[m] = make([]float64, n)
		}
		for t := 0; t < n; t++ {
			c := float64(1 + rng.Intn(5))
			for m := 0; m < l; m++ {
				exec[m][t] = c // identical on every machine
			}
		}
		pairs := l * (l - 1) / 2
		var transfer [][]float64
		if w.Graph.NumItems() > 0 {
			transfer = make([][]float64, pairs)
			for p := range transfer {
				transfer[p] = make([]float64, w.Graph.NumItems())
				for d := range transfer[p] {
					transfer[p][d] = float64(rng.Intn(4)) // small integers incl. 0
				}
			}
		}
		sys := platform.MustNew(n, w.Graph.NumItems(), exec, transfer)
		hw := &workload.Workload{Graph: w.Graph, System: sys}

		s := randomSolution(hw, rng)
		pos := make([]int, n)
		for trial := 0; trial < 12; trial++ {
			idx := rng.Intn(n)
			s.Positions(pos)
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			q := lo + rng.Intn(hi-lo+1)
			m := taskgraph.MachineID(rng.Intn(l))
			s = assertAgree(t, hw, s, idx, q, m)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeltaTotalBoundNeverAbortsWinners(t *testing.T) {
	// The two-part bound contract: with (boundMs, boundTotal) set to an
	// incumbent's key, an aborted candidate's true (makespan, total) key
	// never lexicographically beats the incumbent, and a candidate whose
	// key does beat it is never aborted.
	f := func(seed int64) bool {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x707a1))
		s := randomSolution(w, rng)
		full := schedule.NewEvaluator(w.Graph, w.System)
		delta := schedule.NewDeltaEvaluator(w.Graph, w.System)
		delta.Pin(s)
		pos := make([]int, len(s))
		s.Positions(pos)
		boundMs, boundTotal := full.MakespanTotal(s) // the base's key as incumbent
		for trial := 0; trial < 20; trial++ {
			idx := rng.Intn(len(s))
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			q := lo + rng.Intn(hi-lo+1)
			m := taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
			wantMs, wantTotal := full.MakespanTotal(schedule.Moved(s, idx, q, m))
			beats := wantMs < boundMs || (wantMs == boundMs && wantTotal < boundTotal)
			gotMs, gotTotal, ok := delta.MoveMakespan(idx, q, m, boundMs, boundTotal)
			if ok && (gotMs != wantMs || gotTotal != wantTotal) {
				return false
			}
			if !ok && beats {
				return false // aborted a candidate that beats the incumbent
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeltaCommitMoveEquivalentToRepin(t *testing.T) {
	// Committing an evaluated move must leave the evaluator in exactly the
	// state a full Pin of the moved string would: same base makespan and
	// totals, and identical answers for subsequent moves. The probes after
	// each commit check that second half on the committed evaluator and a
	// freshly pinned one side by side — result and genes stepped alike, so
	// stale replay state (positions, successor reach, checkpoints) shows up
	// even where it happens not to change a makespan.
	//
	// The one documented exception is machine usage: a machine that loses
	// its last suffix task to a commit keeps a stale-high last-use
	// position, which can only make the convergence cutoff fire later.
	// lastUse models that bookkeeping; while it differs from the exact
	// usage of the committed string, the committed evaluator may step more
	// genes than the fresh one, never fewer.
	f := func(seed int64) bool {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0xc037))
		s := randomSolution(w, rng)
		l := w.System.NumMachines()
		full := schedule.NewEvaluator(w.Graph, w.System)
		committed := schedule.NewDeltaEvaluator(w.Graph, w.System)
		fresh := schedule.NewDeltaEvaluator(w.Graph, w.System)
		committed.Pin(s)
		usage := func(s schedule.String, from int, into []int) {
			for j := from; j < len(s); j++ {
				into[s[j].Machine] = j
			}
		}
		exactUsage := func(s schedule.String) []int {
			u := make([]int, l)
			for i := range u {
				u[i] = -1
			}
			usage(s, 0, u)
			return u
		}
		lastUse := exactUsage(s)
		pos := make([]int, len(s))
		randomMove := func() (idx, q int, m taskgraph.MachineID) {
			idx = rng.Intn(len(s))
			s.Positions(pos)
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			return idx, lo + rng.Intn(hi-lo+1), taskgraph.MachineID(rng.Intn(l))
		}
		for trial := 0; trial < 12; trial++ {
			idx, q, m := randomMove()
			wantMs, wantTotal, ok := committed.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
			if !ok {
				t.Fatal("unbounded replay aborted")
			}
			gotMs, gotTotal := committed.CommitMove(idx, q, m)
			if gotMs != wantMs || gotTotal != wantTotal {
				t.Fatalf("CommitMove = (%v,%v), MoveMakespan said (%v,%v)", gotMs, gotTotal, wantMs, wantTotal)
			}
			s = schedule.Moved(s, idx, q, m)
			stride := committed.Stride()
			usage(s, min(idx, q)/stride*stride, lastUse)
			staleUse := !slices.Equal(lastUse, exactUsage(s))
			if fullMs, fullTotal := full.MakespanTotal(s); gotMs != fullMs || gotTotal != fullTotal {
				t.Fatalf("committed base = (%v,%v), full evaluator (%v,%v)", gotMs, gotTotal, fullMs, fullTotal)
			}
			base := committed.Base()
			for i := range s {
				if base[i] != s[i] {
					t.Fatalf("committed base differs from moved string at gene %d", i)
				}
			}

			fresh.Pin(s)
			for probe := 0; probe < 6; probe++ {
				pIdx, pQ, pM := randomMove()
				if probe%2 == 1 && l > 1 && pM == s[pIdx].Machine {
					pM = (pM + 1) % taskgraph.MachineID(l)
				}
				boundMs, boundTotal := schedule.NoBound, schedule.NoBound
				if probe >= 3 {
					boundMs, boundTotal = gotMs, gotTotal
				}
				cBefore, fBefore := committed.Counts().Genes, fresh.Counts().Genes
				cMs, cTotal, cOK := committed.MoveMakespan(pIdx, pQ, pM, boundMs, boundTotal)
				fMs, fTotal, fOK := fresh.MoveMakespan(pIdx, pQ, pM, boundMs, boundTotal)
				if cMs != fMs || cTotal != fTotal || cOK != fOK {
					t.Fatalf("trial %d probe %d MoveMakespan(%d,%d,m%d): committed (%v,%v,%v), fresh pin (%v,%v,%v)",
						trial, probe, pIdx, pQ, pM, cMs, cTotal, cOK, fMs, fTotal, fOK)
				}
				if cg, fg := committed.Counts().Genes-cBefore, fresh.Counts().Genes-fBefore; cg != fg && (!staleUse || cg < fg) {
					t.Fatalf("trial %d probe %d MoveMakespan(%d,%d,m%d): committed stepped %d genes, fresh pin %d",
						trial, probe, pIdx, pQ, pM, cg, fg)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDeltaCountsLedger(t *testing.T) {
	w := randomWorkload(3)
	n := w.Graph.NumTasks()
	delta := schedule.NewDeltaEvaluator(w.Graph, w.System)
	rng := rand.New(rand.NewSource(3))
	s := randomSolution(w, rng)
	delta.Pin(s)
	c := delta.Counts()
	if c.Full != 1 || c.Genes != uint64(n) || c.Delta != 0 {
		t.Fatalf("after Pin: counts = %+v, want Full=1 Genes=%d", c, n)
	}
	pos := make([]int, n)
	s.Positions(pos)
	lo, _ := schedule.ValidRange(w.Graph, s, pos, n-1)
	if _, _, ok := delta.MoveMakespan(n-1, lo, s[n-1].Machine, schedule.NoBound, schedule.NoBound); !ok {
		t.Fatal("unbounded replay aborted")
	}
	c = delta.Counts()
	if c.Delta != 1 || c.Full != 1 {
		t.Fatalf("after one replay: counts = %+v, want Full=1 Delta=1", c)
	}
	if replayed := c.Genes - uint64(n); replayed > uint64(n) {
		t.Fatalf("replay stepped %d genes, more than a full pass (%d)", replayed, n)
	}
	// An impossible bound aborts immediately.
	if _, _, ok := delta.MoveMakespan(n-1, lo, s[n-1].Machine, -math.MaxFloat64, schedule.NoBound); ok {
		t.Fatal("replay with impossible bound did not abort")
	}
	if c = delta.Counts(); c.Aborted != 1 {
		t.Fatalf("aborted count = %d, want 1", c.Aborted)
	}
}
