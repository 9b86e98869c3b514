package solver_test

import (
	"context"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"crsharing/internal/algo/anytime"
	"crsharing/internal/algo/branchbound"
	"crsharing/internal/algo/chunked"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/algo/optresm"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/harness"
	"crsharing/internal/solver"
)

// sevenMemberRace is the default portfolio as it stood before round-robin,
// chunked-exact-w2 and both configuration enumerations left it: the reference
// the trimmed portfolio must match. It stops once an exact member finishes.
// That member's makespan is the optimum, so the race's makespan is the same
// as when every member runs to completion, and the test does not wait
// seconds for the enumeration on five-processor instances.
func sevenMemberRace() *solver.Portfolio {
	p := solver.NewPortfolio(
		solver.Adapt(greedybalance.New()),
		solver.Adapt(roundrobin.New()),
		solver.Adapt(anytime.New()),
		solver.Adapt(chunked.New(2)),
		solver.Adapt(optres2.New()),
		solver.Adapt(optresm.New()),
		solver.Adapt(branchbound.NewParallel()),
	)
	p.RaceExact = true
	return p
}

// TestDefaultPortfolioMatchesSevenMemberRace pins the trim of the default
// portfolio: on the corpus families the exact members solve quickly and on
// seeded random unit instances, the three-member race returns the same
// makespan as the seven-member race it replaced.
func TestDefaultPortfolioMatchesSevenMemberRace(t *testing.T) {
	members := solver.NewDefaultPortfolio().Members
	var got []string
	for _, m := range members {
		got = append(got, m.Name())
	}
	want := []string{"greedy-balance", "anytime-local-search", "branch-and-bound-parallel"}
	if !slices.Equal(got, want) {
		t.Fatalf("default portfolio members %v, want %v", got, want)
	}

	type named struct {
		label string
		inst  *core.Instance
	}
	var cases []named
	corpus := harness.BuildCorpus(1)
	for _, fam := range []string{harness.FamilyTinyExact, harness.FamilyAdversarialDup, harness.FamilyPaperFigures, harness.FamilyGreedyTrap} {
		for i, inst := range corpus.Family(fam).Instances {
			cases = append(cases, named{fam + "/" + strconv.Itoa(i), inst})
		}
	}
	rng := rand.New(rand.NewSource(20140623))
	for i := 0; i < 500; i++ {
		cases = append(cases, named{"random-2/" + strconv.Itoa(i), gen.Random(rng, 2+rng.Intn(3), 2, 0.05, 0.95)})
	}
	for i := 0; i < 100; i++ {
		cases = append(cases, named{"random-3/" + strconv.Itoa(i), gen.Random(rng, 2+rng.Intn(3), 3, 0.05, 0.95)})
	}

	// Each race gets the 2 s deadline the cold-portfolio workload sends.
	solve := func(p *solver.Portfolio, inst *core.Instance) (*solver.Evaluation, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return solver.Evaluate(ctx, p, inst)
	}
	trimmed, reference := solver.NewDefaultPortfolio(), sevenMemberRace()
	for _, c := range cases {
		ev, err := solve(trimmed, c.inst)
		if err != nil {
			t.Fatalf("%s: default portfolio: %v", c.label, err)
		}
		ref, err := solve(reference, c.inst)
		if err != nil {
			t.Fatalf("%s: seven-member race: %v", c.label, err)
		}
		if ev.Makespan != ref.Makespan {
			t.Errorf("%s: default portfolio makespan %d, seven-member race %d (won by %s)", c.label, ev.Makespan, ref.Makespan, ref.Stats.Winner)
		}
	}
}
