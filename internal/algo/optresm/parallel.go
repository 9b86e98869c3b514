package optresm

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"crsharing/internal/core"
	"crsharing/internal/progress"
)

// ParallelScheduler is the multi-core variant of the configuration
// enumeration. Each round fans the live configurations out to a worker pool
// in contiguous chunks; every worker enumerates the successors of its chunk
// independently, and the per-round merge (deduplication, final-configuration
// detection and domination pruning) stays serial, which keeps the algorithm
// deterministic: it visits exactly the configurations the serial scheduler
// visits, in the same order.
type ParallelScheduler struct {
	// Workers is the pool size (0 = GOMAXPROCS).
	Workers int
	// MaxConfigs overrides DefaultMaxConfigs when positive.
	MaxConfigs int
}

// NewParallel returns a parallel OptResAssignment2 scheduler with default
// limits.
func NewParallel() *ParallelScheduler { return &ParallelScheduler{} }

// Name implements algo.Scheduler.
func (s *ParallelScheduler) Name() string { return "opt-res-assignment-2-parallel" }

// IsExact marks the scheduler as exact.
func (s *ParallelScheduler) IsExact() bool { return true }

// Schedule implements algo.Scheduler.
func (s *ParallelScheduler) Schedule(inst *core.Instance) (*core.Schedule, error) {
	return s.ScheduleContext(context.Background(), inst)
}

// ScheduleContext computes an optimal schedule, polling ctx between rounds
// and between chunks so cancellation and deadlines take effect promptly.
func (s *ParallelScheduler) ScheduleContext(ctx context.Context, inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if !inst.IsUnitSize() {
		return nil, fmt.Errorf("optresm: requires unit size jobs: %w", core.ErrUnsupported)
	}
	m := inst.NumProcessors()
	if m == 0 || inst.TotalJobs() == 0 {
		return &core.Schedule{}, nil
	}
	if m > MaxProcessors {
		return nil, fmt.Errorf("optresm: %d processors exceeds the supported maximum of %d: %w", m, MaxProcessors, core.ErrUnsupported)
	}
	maxConfigs := s.MaxConfigs
	if maxConfigs <= 0 {
		maxConfigs = DefaultMaxConfigs
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	root := &config{done: make([]int, m), rem: make([]float64, m), parent: -1}
	for i := 0; i < m; i++ {
		root.rem[i] = work(inst, i, 0)
	}
	if isFinal(inst, root) {
		return &core.Schedule{}, nil
	}

	rounds := [][]*config{{root}}
	totalConfigs := 1

	for t := 0; ; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		current := rounds[t]

		expanded, err := expandRound(ctx, inst, current, workers)
		if err != nil {
			return nil, err
		}

		// Serial merge, identical to the serial scheduler: successors are
		// visited in parent order, so deduplication keeps the same
		// representatives.
		var next []*config
		seen := make(map[string]int)
		for i, nc := range expanded {
			if i&63 == 63 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			k := nc.key()
			if _, ok := seen[k]; ok {
				continue
			}
			seen[k] = len(next)
			next = append(next, nc)
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("optresm: internal error: no successor configurations at round %d", t+1)
		}
		// Same node accounting as the serial scheduler: the merged rounds are
		// identical by construction, so the tallies agree.
		progress.AddNodes(ctx, int64(len(next)))

		for _, nc := range next {
			if isFinal(inst, nc) {
				rounds = append(rounds, next)
				return reconstruct(inst, rounds, nc), nil
			}
		}

		// Guard before the quadratic pruning sweep as well: a single round
		// whose raw successor set already exceeds the budget would otherwise
		// spend unbounded time inside the sweep before being rejected.
		if totalConfigs+len(next) > maxConfigs {
			return nil, fmt.Errorf("optresm: configuration limit of %d exceeded (instance too large for the exact algorithm)", maxConfigs)
		}
		next, err = pruneDominated(ctx, next)
		if err != nil {
			return nil, err
		}
		totalConfigs += len(next)
		if totalConfigs > maxConfigs {
			return nil, fmt.Errorf("optresm: configuration limit of %d exceeded (instance too large for the exact algorithm)", maxConfigs)
		}
		rounds = append(rounds, next)
	}
}

// Makespan returns only the optimal makespan.
func (s *ParallelScheduler) Makespan(inst *core.Instance) (int, error) {
	sched, err := s.Schedule(inst)
	if err != nil {
		return 0, err
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		return 0, err
	}
	if !res.Finished() {
		return 0, fmt.Errorf("optresm: internal error: reconstructed schedule incomplete")
	}
	return res.Makespan(), nil
}

// expandRound enumerates the successors of every configuration in the round,
// fanning contiguous chunks out to the worker pool. The returned slice is in
// parent order (successors of current[0] first, then current[1], ...), so the
// caller's merge behaves exactly like the serial round loop.
func expandRound(ctx context.Context, inst *core.Instance, current []*config, workers int) ([]*config, error) {
	if workers > len(current) {
		workers = len(current)
	}
	if workers <= 1 {
		var out []*config
		for parentIdx, c := range current {
			if parentIdx&63 == 63 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for _, nc := range successors(inst, c) {
				nc.parent = parentIdx
				out = append(out, nc)
			}
		}
		return out, nil
	}

	chunkSize := (len(current) + workers - 1) / workers
	type chunk struct{ lo, hi int }
	var chunks []chunk
	for lo := 0; lo < len(current); lo += chunkSize {
		hi := lo + chunkSize
		if hi > len(current) {
			hi = len(current)
		}
		chunks = append(chunks, chunk{lo, hi})
	}

	results := make([][]*config, len(chunks))
	var wg sync.WaitGroup
	for ci, ch := range chunks {
		wg.Add(1)
		go func(ci int, ch chunk) {
			defer wg.Done()
			var out []*config
			for parentIdx := ch.lo; parentIdx < ch.hi; parentIdx++ {
				if parentIdx&63 == 63 && ctx.Err() != nil {
					return
				}
				for _, nc := range successors(inst, current[parentIdx]) {
					nc.parent = parentIdx
					out = append(out, nc)
				}
			}
			results[ci] = out
		}(ci, ch)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var out []*config
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}
