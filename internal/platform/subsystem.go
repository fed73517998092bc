package platform

import (
	"fmt"

	"repro/internal/taskgraph"
)

// Subsystem returns a System over the same machine suite restricted to the
// given parent task and item IDs: task i of the subsystem is parent task
// tasks[i] and item d is parent item items[d], with execution and transfer
// times copied from the parent. It is the platform half of a region
// subproblem — internal/shard pairs it with taskgraph.Induce so each DAG
// region can be scheduled by any unchanged scheduler, machine IDs staying
// globally meaningful.
func (s *System) Subsystem(tasks []taskgraph.TaskID, items []taskgraph.ItemID) (*System, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("platform: Subsystem: no tasks")
	}
	for _, t := range tasks {
		if t < 0 || int(t) >= s.tasks {
			return nil, fmt.Errorf("platform: Subsystem: task %d out of range [0,%d)", t, s.tasks)
		}
	}
	for _, d := range items {
		if d < 0 || int(d) >= s.items {
			return nil, fmt.Errorf("platform: Subsystem: item %d out of range [0,%d)", d, s.items)
		}
	}
	exec := make([][]float64, s.machines)
	for m := range exec {
		row := make([]float64, len(tasks))
		for i, t := range tasks {
			row[i] = s.exec[m][t]
		}
		exec[m] = row
	}
	var flat []float64
	if len(items) > 0 {
		pairs := s.machines * (s.machines - 1) / 2
		flat = make([]float64, (pairs+1)*len(items))
		for p := 1; p <= pairs; p++ {
			row := s.transfer[p*s.items:]
			for i, d := range items {
				flat[p*len(items)+i] = row[d]
			}
		}
	}
	return build(len(tasks), len(items), exec, flat), nil
}
