package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestJobWorkAndSteps(t *testing.T) {
	j := Job{Req: 0.4, Size: 2.5}
	if !almostEq(j.Work(), 1.0) {
		t.Fatalf("work = %v, want 1.0", j.Work())
	}
	if j.Steps() != 3 {
		t.Fatalf("steps = %d, want 3", j.Steps())
	}
	if UnitJob(0.7).Steps() != 1 {
		t.Fatalf("unit job needs exactly one step at full speed")
	}
	if (Job{Req: 0.5, Size: 0}).Steps() != 0 {
		t.Fatalf("zero-size job needs zero steps")
	}
}

func TestJobValidate(t *testing.T) {
	cases := []struct {
		job Job
		ok  bool
	}{
		{Job{Req: 0.5, Size: 1}, true},
		{Job{Req: 0, Size: 1}, true},
		{Job{Req: 1, Size: 10}, true},
		{Job{Req: -0.1, Size: 1}, false},
		{Job{Req: 1.1, Size: 1}, false},
		{Job{Req: 0.5, Size: 0}, false},
		{Job{Req: 0.5, Size: -2}, false},
		{Job{Req: math.NaN(), Size: 1}, false},
		{Job{Req: 0.5, Size: math.Inf(1)}, false},
	}
	for _, c := range cases {
		err := c.job.Validate()
		if (err == nil) != c.ok {
			t.Fatalf("Validate(%+v) = %v, want ok=%v", c.job, err, c.ok)
		}
	}
}

func TestInstanceAccessors(t *testing.T) {
	inst := NewInstance([]float64{0.2, 0.4}, []float64{0.6}, nil)
	if inst.NumProcessors() != 3 || inst.TotalJobs() != 3 || inst.MaxJobs() != 2 {
		t.Fatalf("unexpected shape: m=%d total=%d max=%d", inst.NumProcessors(), inst.TotalJobs(), inst.MaxJobs())
	}
	if !almostEq(inst.TotalWork(), 1.2) {
		t.Fatalf("total work = %v, want 1.2", inst.TotalWork())
	}
	if !inst.IsUnitSize() {
		t.Fatalf("NewInstance builds unit-size jobs")
	}
	if got := inst.ProcsWithAtLeast(2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("M_2 = %v, want [0]", got)
	}
	if got := inst.ProcsWithAtLeast(1); len(got) != 2 {
		t.Fatalf("M_1 = %v, want two processors", got)
	}
	if inst.String() == "" || !strings.Contains(inst.String(), "p1:") {
		t.Fatalf("String rendering broken: %q", inst.String())
	}
}

func TestInstanceCloneAndEqual(t *testing.T) {
	a := NewInstance([]float64{0.2, 0.4}, []float64{0.6})
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatalf("clone must equal the original")
	}
	b.Procs[0][0].Req = 0.3
	if a.Equal(b) {
		t.Fatalf("mutating the clone must not affect equality with the original")
	}
	if a.Procs[0][0].Req != 0.2 {
		t.Fatalf("clone must be deep: original was mutated")
	}
	c := NewInstance([]float64{0.2, 0.4})
	if a.Equal(c) {
		t.Fatalf("instances with different processor counts are not equal")
	}
	d := NewInstance([]float64{0.2}, []float64{0.6})
	if a.Equal(d) {
		t.Fatalf("instances with different job counts are not equal")
	}
}

func TestInstanceValidate(t *testing.T) {
	good := NewInstance([]float64{0.5})
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := NewInstance([]float64{1.5})
	if err := bad.Validate(); err == nil {
		t.Fatalf("expected validation error for requirement > 1")
	}
	var nilInst *Instance
	if err := nilInst.Validate(); err == nil {
		t.Fatalf("nil instance must not validate")
	}
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	inst := NewSizedInstance(
		[]Job{{Req: 0.25, Size: 1}, {Req: 0.5, Size: 2}},
		[]Job{{Req: 1, Size: 1}},
	)
	data, err := json.Marshal(inst)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if want := `{"procs":[[{"req":0.25,"size":1},{"req":0.5,"size":2}],[{"req":1,"size":1}]]}`; string(data) != want {
		t.Fatalf("Marshal = %s, want %s", data, want)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !inst.Equal(&back) {
		t.Fatalf("round trip changed the instance:\n%v\n%v", inst, &back)
	}
	if err := json.Unmarshal([]byte(`{"procs":[[{"req":7,"size":1}]]}`), &back); err == nil {
		t.Fatalf("unmarshalling an invalid instance must fail validation")
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := NewSchedule(2, 2)
	s.Alloc[0] = []float64{0.25, 0.75}
	s.Alloc[1] = []float64{1, 0}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if want := `{"alloc":[[0.25,0.75],[1,0]]}`; string(data) != want {
		t.Fatalf("Marshal = %s, want %s", data, want)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Steps() != 2 || back.Share(0, 1) != 0.75 {
		t.Fatalf("round trip changed the schedule: %v", back)
	}
}

func TestJobIDString(t *testing.T) {
	id := JobID{Proc: 1, Pos: 2}
	if id.String() != "(2,3)" {
		t.Fatalf("JobID renders one-based, got %q", id.String())
	}
}

func TestTotalWorkIsLowerBoundProperty(t *testing.T) {
	// Property: for any unit-size instance, the Observation 1 bound never
	// exceeds the makespan of the trivial sequential schedule (one job per
	// step, full requirement each), which is the total number of jobs.
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 24 {
			return true
		}
		procs := make([][]float64, 1+len(raw)%4)
		for i, r := range raw {
			procs[i%len(procs)] = append(procs[i%len(procs)], float64(r)/255)
		}
		inst := NewInstance(procs...)
		lb := LowerBounds(inst)
		return lb.Work <= inst.TotalJobs() && lb.Chain <= inst.TotalJobs() && lb.Best() >= lb.Work
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("property violated: %v", err)
	}
}

func TestLowerBounds(t *testing.T) {
	inst := NewInstance([]float64{0.5, 0.5, 0.5}, []float64{1.0})
	b := LowerBounds(inst)
	if b.Work != 3 { // total work 2.5 → ⌈2.5⌉ = 3
		t.Fatalf("work bound = %d, want 3", b.Work)
	}
	if b.Chain != 3 {
		t.Fatalf("chain bound = %d, want 3", b.Chain)
	}
	if b.Best() != 3 {
		t.Fatalf("best bound = %d, want 3", b.Best())
	}

	sized := NewSizedInstance([]Job{{Req: 0.1, Size: 5}})
	bs := LowerBounds(sized)
	if bs.Chain != 5 || bs.Work != 1 || bs.Best() != 5 {
		t.Fatalf("sized bounds = %+v, want chain 5, work 1", bs)
	}
}

func TestApproxRatio(t *testing.T) {
	inst := NewInstance([]float64{1, 1})
	if r := ApproxRatio(inst, 4); !almostEq(r, 2) {
		t.Fatalf("ratio = %v, want 2", r)
	}
	empty := NewInstance()
	if r := ApproxRatio(empty, 0); r != 1 {
		t.Fatalf("ratio of empty instance = %v, want 1", r)
	}
	if r := ApproxRatio(empty, 3); !math.IsInf(r, 1) {
		t.Fatalf("nonzero makespan on empty instance should give +Inf, got %v", r)
	}
}
