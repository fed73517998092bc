package platform

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/taskgraph"
)

// sys3x2 builds 3 machines × 2 tasks with one data item.
func sys3x2(t *testing.T) *System {
	t.Helper()
	exec := [][]float64{
		{10, 40}, // m0
		{20, 30}, // m1
		{30, 20}, // m2
	}
	transfer := [][]float64{
		{5}, // pair (0,1)
		{6}, // pair (0,2)
		{7}, // pair (1,2)
	}
	s, err := New(2, 1, exec, transfer)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestDimensions(t *testing.T) {
	s := sys3x2(t)
	if s.NumMachines() != 3 || s.NumTasks() != 2 || s.NumItems() != 1 {
		t.Errorf("dims = %d machines, %d tasks, %d items", s.NumMachines(), s.NumTasks(), s.NumItems())
	}
}

func TestExecTime(t *testing.T) {
	s := sys3x2(t)
	cases := []struct {
		m    taskgraph.MachineID
		task taskgraph.TaskID
		want float64
	}{
		{0, 0, 10}, {0, 1, 40}, {1, 0, 20}, {1, 1, 30}, {2, 0, 30}, {2, 1, 20},
	}
	for _, tc := range cases {
		if got := s.ExecTime(tc.m, tc.task); got != tc.want {
			t.Errorf("ExecTime(%d,%d) = %v, want %v", tc.m, tc.task, got, tc.want)
		}
	}
}

func TestPairIndex(t *testing.T) {
	s := sys3x2(t)
	cases := []struct {
		a, b taskgraph.MachineID
		want int
	}{
		{0, 1, 0}, {0, 2, 1}, {1, 2, 2},
		{1, 0, 0}, {2, 0, 1}, {2, 1, 2}, // symmetric
	}
	for _, tc := range cases {
		if got := s.PairIndex(tc.a, tc.b); got != tc.want {
			t.Errorf("PairIndex(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPairIndexLargerSuite(t *testing.T) {
	// 5 machines: pairs must enumerate 0..9 without collision.
	exec := make([][]float64, 5)
	for m := range exec {
		exec[m] = []float64{1}
	}
	transfer := make([][]float64, 10)
	for p := range transfer {
		transfer[p] = []float64{1}
	}
	s, err := New(1, 1, exec, transfer)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	seen := make(map[int]bool)
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			idx := s.PairIndex(taskgraph.MachineID(a), taskgraph.MachineID(b))
			if idx < 0 || idx >= 10 {
				t.Fatalf("PairIndex(%d,%d) = %d out of range", a, b, idx)
			}
			if seen[idx] {
				t.Fatalf("PairIndex(%d,%d) = %d collides", a, b, idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("enumerated %d pair indices, want 10", len(seen))
	}
}

func TestTransferTime(t *testing.T) {
	s := sys3x2(t)
	if got := s.TransferTime(0, 1, 0); got != 5 {
		t.Errorf("TransferTime(0,1) = %v, want 5", got)
	}
	if got := s.TransferTime(1, 0, 0); got != 5 {
		t.Errorf("TransferTime(1,0) = %v, want 5 (symmetry)", got)
	}
	if got := s.TransferTime(2, 2, 0); got != 0 {
		t.Errorf("TransferTime same machine = %v, want 0", got)
	}
}

func TestBestAndRankedMachines(t *testing.T) {
	s := sys3x2(t)
	if got := s.BestMachine(0); got != 0 {
		t.Errorf("BestMachine(task 0) = %d, want 0", got)
	}
	if got := s.BestMachine(1); got != 2 {
		t.Errorf("BestMachine(task 1) = %d, want 2", got)
	}
	r0 := s.RankedMachines(0)
	want0 := []taskgraph.MachineID{0, 1, 2}
	for i := range want0 {
		if r0[i] != want0[i] {
			t.Fatalf("RankedMachines(0) = %v, want %v", r0, want0)
		}
	}
	r1 := s.RankedMachines(1)
	want1 := []taskgraph.MachineID{2, 1, 0}
	for i := range want1 {
		if r1[i] != want1[i] {
			t.Fatalf("RankedMachines(1) = %v, want %v", r1, want1)
		}
	}
}

func TestRankedMachinesTieBreak(t *testing.T) {
	exec := [][]float64{{7}, {7}, {7}}
	transfer := [][]float64{}
	s, err := New(1, 0, exec, transfer)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r := s.RankedMachines(0)
	for i := range r {
		if r[i] != taskgraph.MachineID(i) {
			t.Errorf("tied ranking = %v, want machine-ID order", r)
			break
		}
	}
}

func TestTopMachines(t *testing.T) {
	s := sys3x2(t)
	if got := s.TopMachines(0, 2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("TopMachines(0,2) = %v", got)
	}
	if got := s.TopMachines(0, 0); len(got) != 3 {
		t.Errorf("TopMachines(0,0) = %v, want all 3", got)
	}
	if got := s.TopMachines(0, 99); len(got) != 3 {
		t.Errorf("TopMachines(0,99) = %v, want all 3", got)
	}
	if got := s.TopMachines(0, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("TopMachines(0,1) = %v", got)
	}
}

func TestMinAndMeanExecTime(t *testing.T) {
	s := sys3x2(t)
	if got := s.MinExecTime(0); got != 10 {
		t.Errorf("MinExecTime(0) = %v, want 10", got)
	}
	if got := s.MeanExecTime(0); got != 20 {
		t.Errorf("MeanExecTime(0) = %v, want 20", got)
	}
	if got := s.MeanExecTime(1); got != 30 {
		t.Errorf("MeanExecTime(1) = %v, want 30", got)
	}
}

func TestMeanTransferTime(t *testing.T) {
	s := sys3x2(t)
	if got := s.MeanTransferTime(0); got != 6 {
		t.Errorf("MeanTransferTime = %v, want 6", got)
	}
}

func TestMatricesAreCopies(t *testing.T) {
	exec := [][]float64{{1, 2}, {3, 4}}
	transfer := [][]float64{{5}}
	s, err := New(2, 1, exec, transfer)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	exec[0][0] = 999
	transfer[0][0] = 999
	if s.ExecTime(0, 0) != 1 {
		t.Error("System aliases caller's exec matrix")
	}
	if s.TransferTime(0, 1, 0) != 5 {
		t.Error("System aliases caller's transfer matrix")
	}
	em := s.ExecMatrix()
	em[0][0] = -1
	if s.ExecTime(0, 0) != 1 {
		t.Error("ExecMatrix returns an aliased copy")
	}
	tm := s.TransferMatrix()
	tm[0][0] = -1
	if s.TransferTime(0, 1, 0) != 5 {
		t.Error("TransferMatrix returns an aliased copy")
	}
}

func TestNewErrors(t *testing.T) {
	cases := []struct {
		name     string
		tasks    int
		items    int
		exec     [][]float64
		transfer [][]float64
		want     string
	}{
		{"no machines", 1, 0, nil, nil, "no machines"},
		{"bad task count", 0, 0, [][]float64{{}}, nil, "numTasks"},
		{"ragged exec", 2, 0, [][]float64{{1, 2}, {3}}, nil, "exec row"},
		{"non-positive exec", 1, 0, [][]float64{{0}}, nil, "want > 0"},
		{"negative exec", 1, 0, [][]float64{{-3}}, nil, "want > 0"},
		{"missing transfer rows", 1, 1, [][]float64{{1}, {1}}, nil, "transfer has"},
		{"ragged transfer", 1, 2, [][]float64{{1}, {1}}, [][]float64{{1}}, "transfer row"},
		{"negative transfer", 1, 1, [][]float64{{1}, {1}}, [][]float64{{-1}}, "want >= 0"},
		// Two rows of 2^30 items overflow the table's int32 row offsets;
		// the size is rejected before any row is read or copied.
		{"oversized transfer table", 1, 1 << 30, [][]float64{{1}, {1}}, [][]float64{nil}, "too large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.tasks, tc.items, tc.exec, tc.transfer)
			if err == nil {
				t.Fatalf("New succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestSingleMachineNoTransfer(t *testing.T) {
	s, err := New(2, 3, [][]float64{{1, 2}}, nil)
	if err != nil {
		t.Fatalf("New single machine: %v", err)
	}
	if got := s.TransferTime(0, 0, 2); got != 0 {
		t.Errorf("TransferTime on single machine = %v, want 0", got)
	}
	if got := s.MeanTransferTime(0); got != 0 {
		t.Errorf("MeanTransferTime on single machine = %v, want 0", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with invalid input did not panic")
		}
	}()
	MustNew(1, 0, nil, nil)
}

// TestFlatTransferLayout pins the flat transfer table against the
// [pair][item] matrix New was given: every lookup path — TransferTime,
// the hoisted TransferRow, TransferMatrix, MeanTransferTime and
// Subsystem — must reproduce the input bit for bit, and same-machine
// transfers must read as exactly +0.
func TestFlatTransferLayout(t *testing.T) {
	for _, l := range []int{1, 2, 5, 20} {
		for _, items := range []int{0, 7} {
			t.Run(fmt.Sprintf("l=%d/items=%d", l, items), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(l*100 + items)))
				exec := make([][]float64, l)
				for m := range exec {
					exec[m] = []float64{1 + rng.Float64(), 1 + rng.Float64()}
				}
				pairs := l * (l - 1) / 2
				var transfer [][]float64
				if items > 0 {
					transfer = make([][]float64, pairs)
					for p := range transfer {
						transfer[p] = make([]float64, items)
						for d := range transfer[p] {
							transfer[p][d] = rng.Float64() * 100
						}
					}
				}
				s, err := New(2, items, exec, transfer)
				if err != nil {
					t.Fatal(err)
				}
				for a := 0; a < l; a++ {
					for b := 0; b < l; b++ {
						ma, mb := taskgraph.MachineID(a), taskgraph.MachineID(b)
						tr, off := s.TransferRow(mb)
						for d := 0; d < items; d++ {
							got := s.TransferTime(ma, mb, taskgraph.ItemID(d))
							want := 0.0
							if a != b {
								want = transfer[s.PairIndex(ma, mb)][d]
							}
							if got != want || math.Signbit(got) {
								t.Fatalf("TransferTime(%d,%d,%d) = %v, want %v", a, b, d, got, want)
							}
							if row := tr[int(off[a])+d]; row != got {
								t.Fatalf("TransferRow(%d) item %d from %d = %v, TransferTime %v", b, d, a, row, got)
							}
						}
					}
				}
				if !reflect.DeepEqual(s.TransferMatrix(), transfer) {
					t.Fatalf("TransferMatrix() = %v, want the input %v", s.TransferMatrix(), transfer)
				}
				for d := 0; d < items; d++ {
					want := 0.0
					if pairs > 0 {
						for p := 0; p < pairs; p++ {
							want += transfer[p][d]
						}
						want /= float64(pairs)
					}
					if got := s.MeanTransferTime(taskgraph.ItemID(d)); got != want {
						t.Fatalf("MeanTransferTime(%d) = %v, want %v", d, got, want)
					}
				}

				// A subsystem over every item in reverse order must see item
				// i as the parent's item items-1-i.
				all := make([]taskgraph.ItemID, items)
				for i := range all {
					all[i] = taskgraph.ItemID(items - 1 - i)
				}
				sub, err := s.Subsystem([]taskgraph.TaskID{1, 0}, all)
				if err != nil {
					t.Fatal(err)
				}
				var wantSub [][]float64
				if items > 0 {
					wantSub = make([][]float64, pairs)
					for p := range wantSub {
						for _, d := range all {
							wantSub[p] = append(wantSub[p], transfer[p][d])
						}
					}
				}
				if !reflect.DeepEqual(sub.TransferMatrix(), wantSub) {
					t.Fatalf("Subsystem TransferMatrix() = %v, want %v", sub.TransferMatrix(), wantSub)
				}
				for m := 0; m < l; m++ {
					if got := sub.ExecMatrix()[m]; got[0] != exec[m][1] || got[1] != exec[m][0] {
						t.Fatalf("Subsystem exec row %d = %v, want the parent's reversed %v", m, got, exec[m])
					}
				}
			})
		}
	}
}
