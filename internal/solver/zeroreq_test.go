package solver

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"crsharing/internal/core"
)

// zeroReqInstance draws a unit-size instance with m processors and 1..3 jobs
// each, then zeroes the requirement of roughly a third of the jobs at random
// positions (first, middle, last and whole processors included).
func zeroReqInstance(rng *rand.Rand) *core.Instance {
	m := 2 + rng.Intn(3)
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, 1+rng.Intn(3))
		for j := range rows[i] {
			if rng.Intn(3) > 0 {
				rows[i][j] = 0.05 + 0.95*rng.Float64()
			}
		}
	}
	return core.NewInstance(rows...)
}

// TestZeroRequirementJobsAcrossSolvers pins one meaning for req = 0: every
// registered solver either returns a schedule that core.Execute finishes or
// declines the instance with a precondition error. The two fixed instances
// once left a trailing zero-requirement job unfinished in GreedyBalance and,
// through its seed schedule, in the anytime tier and branch-and-bound. The
// 1e-300 instances pin the same answer for requirements and sizes that are
// positive but negligible.
func TestZeroRequirementJobsAcrossSolvers(t *testing.T) {
	insts := []*core.Instance{
		core.NewInstance([]float64{0.5, 0}, []float64{0.5}),
		core.NewInstance([]float64{0.6509}, []float64{0.1274, 0.6667, 0}),
		core.NewInstance([]float64{0, 0}, []float64{0}),
		core.NewInstance([]float64{0.5, 1e-300}, []float64{1e-300}),
		{Procs: [][]core.Job{{{Req: 0.5, Size: 1e-300}, core.UnitJob(0.5)}, {{Req: 1, Size: 1e-300}}}},
		{Procs: [][]core.Job{{{Req: 1e-300, Size: 1e-300}}, {core.UnitJob(0.7)}}},
	}
	rng := rand.New(rand.NewSource(0))
	for len(insts) < 63 {
		insts = append(insts, zeroReqInstance(rng))
	}
	reg := Default()
	for ci, inst := range insts {
		for _, name := range reg.Names() {
			s, err := reg.New(name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			sched, _, err := s.Solve(ctx, inst)
			cancel()
			if err != nil {
				if !errors.Is(err, core.ErrUnsupported) {
					t.Errorf("instance %d %v: %s: %v", ci, inst.Procs, name, err)
				}
				continue
			}
			res, err := core.Execute(inst, sched)
			if err != nil {
				t.Errorf("instance %d %v: %s: invalid schedule: %v", ci, inst.Procs, name, err)
				continue
			}
			if !res.Finished() {
				t.Errorf("instance %d %v: %s: schedule leaves jobs unfinished", ci, inst.Procs, name)
			}
		}
	}
}
