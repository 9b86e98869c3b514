// Package bruteforce provides an exhaustive-search makespan oracle for tiny
// CRSharing instances with unit size jobs. It exists purely as an independent
// cross-check for the exact algorithms (the m=2 dynamic program of package
// optres2 and the configuration enumeration of package optresm): it shares no
// code with them and performs no dominance pruning, only memoisation of
// exactly identical states, so a pruning bug in the exact algorithms cannot
// hide here.
//
// By Lemma 1 an optimal schedule exists among the non-wasting, progressive
// (and nested) schedules, so restricting the search to steps that finish a
// set of active jobs and route any leftover resource to at most one further
// active job preserves optimality.
package bruteforce

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"crsharing/internal/core"
	"crsharing/internal/numeric"
)

// MaxStates caps the number of memoised states; beyond it Solve gives up with
// an error rather than exhausting memory. Brute force is intended for
// instances with at most a handful of processors and jobs.
const MaxStates = 5_000_000

// Solver is the exhaustive makespan oracle.
type Solver struct {
	memo map[string]int
	inst *core.Instance
}

// Makespan returns the optimal makespan of the instance. Only unit size jobs
// are supported.
func Makespan(inst *core.Instance) (int, error) {
	if err := inst.Validate(); err != nil {
		return 0, err
	}
	if !inst.IsUnitSize() {
		return 0, fmt.Errorf("bruteforce: requires unit size jobs: %w", core.ErrUnsupported)
	}
	s := &Solver{memo: make(map[string]int), inst: inst}
	done := make([]int, inst.NumProcessors())
	rem := make([]float64, inst.NumProcessors())
	for i := range rem {
		rem[i] = jobWork(inst, i, 0)
	}
	return s.solve(done, rem)
}

func jobWork(inst *core.Instance, p, done int) float64 {
	if done >= inst.NumJobs(p) {
		return 0
	}
	return inst.Job(p, done).Work()
}

func stateKey(done []int, rem []float64) string {
	var b strings.Builder
	for i := range done {
		b.WriteString(strconv.Itoa(done[i]))
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(int64(math.Round(rem[i]*1e9)), 36))
		b.WriteByte(';')
	}
	return b.String()
}

// solve returns the minimum number of additional steps needed from the given
// state.
func (s *Solver) solve(done []int, rem []float64) (int, error) {
	m := s.inst.NumProcessors()
	var active []int
	demand := 0.0
	for i := 0; i < m; i++ {
		if done[i] < s.inst.NumJobs(i) {
			active = append(active, i)
			demand += rem[i]
		}
	}
	if len(active) == 0 {
		return 0, nil
	}
	key := stateKey(done, rem)
	if v, ok := s.memo[key]; ok {
		return v, nil
	}
	if len(s.memo) > MaxStates {
		return 0, fmt.Errorf("bruteforce: state limit exceeded")
	}
	// Reserve the slot to guard against (impossible) cycles while recursing.
	s.memo[key] = math.MaxInt32

	best := math.MaxInt32

	tryFinish := func(finish []int, partial int, leftover float64) error {
		nd := append([]int(nil), done...)
		nr := append([]float64(nil), rem...)
		for _, i := range finish {
			nd[i]++
			nr[i] = jobWork(s.inst, i, nd[i])
		}
		if partial >= 0 {
			nr[partial] -= leftover
			if nr[partial] < 0 {
				nr[partial] = 0
			}
		}
		sub, err := s.solve(nd, nr)
		if err != nil {
			return err
		}
		if sub+1 < best {
			best = sub + 1
		}
		return nil
	}

	if numeric.Leq(demand, 1) {
		// Finishing everything active is the unique undominated move.
		if err := tryFinish(active, -1, 0); err != nil {
			return 0, err
		}
	} else {
		k := len(active)
		for mask := 0; mask < 1<<k; mask++ {
			sum := 0.0
			var finish []int
			for bit := 0; bit < k; bit++ {
				if mask&(1<<bit) != 0 {
					finish = append(finish, active[bit])
					sum += rem[active[bit]]
				}
			}
			if numeric.Greater(sum, 1) {
				continue
			}
			leftover := 1 - sum
			if leftover <= numeric.Eps {
				if len(finish) == 0 {
					continue
				}
				if err := tryFinish(finish, -1, 0); err != nil {
					return 0, err
				}
				continue
			}
			for _, p := range active {
				if inSet(finish, p) || !numeric.Greater(rem[p], leftover) {
					continue
				}
				if err := tryFinish(finish, p, leftover); err != nil {
					return 0, err
				}
			}
			// A step that finishes at least one job but deliberately wastes
			// the leftover is never better than routing the leftover to a
			// partial job, and routing is always possible when some active
			// job remains unfinished; when every active job fits in F the
			// "finish everything" move covers it. Hence no extra branch.
		}
	}

	if best == math.MaxInt32 {
		return 0, fmt.Errorf("bruteforce: no feasible move from state %s", key)
	}
	s.memo[key] = best
	return best, nil
}

func inSet(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
