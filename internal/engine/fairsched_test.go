package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"crsharing/internal/core"
)

// TestSchedulerTenantIsolation is the core fairness regression: a light
// tenant arriving behind a deep backlog from an abusive tenant must be
// admitted within one round-robin pass, not after the whole backlog. The old
// FIFO semaphore would have served all ten heavy arrivals first.
func TestSchedulerTenantIsolation(t *testing.T) {
	sem := newFairScheduler(1, nil, 0)
	ctx := context.Background()
	if err := sem.Acquire(ctx, "heavy"); err != nil {
		t.Fatal(err)
	}
	const backlog = 10
	heavyAdmitted := make(chan struct{}, backlog)
	for i := 0; i < backlog; i++ {
		go func() {
			if err := sem.Acquire(ctx, "heavy"); err == nil {
				heavyAdmitted <- struct{}{}
			}
		}()
	}
	for sem.Waiting() < backlog {
		time.Sleep(time.Millisecond)
	}
	lightDone := make(chan error, 1)
	go func() { lightDone <- sem.Acquire(ctx, "light") }()
	for sem.Waiting() < backlog+1 {
		time.Sleep(time.Millisecond)
	}

	// Drain one grant per release: the light tenant must get the slot within
	// two grants despite ten heavy requests queued ahead of it in arrival
	// order.
	heavyGrants := 0
	sem.Release("heavy")
	for {
		select {
		case <-heavyAdmitted:
			heavyGrants++
			if heavyGrants > 2 {
				t.Fatalf("light tenant starved: %d heavy grants before it ran", heavyGrants)
			}
			sem.Release("heavy")
		case err := <-lightDone:
			if err != nil {
				t.Fatal(err)
			}
			sem.Release("light")
			// Drain the heavy backlog so no goroutine is left blocked.
			for heavyGrants < backlog {
				<-heavyAdmitted
				heavyGrants++
				sem.Release("heavy")
			}
			return
		case <-time.After(5 * time.Second):
			t.Fatal("scheduler stalled")
		}
	}
}

// TestSchedulerWeightedShare drains a contended slot across a weight-3 and a
// weight-1 tenant and checks the deficit round-robin hands out grants in
// (close to) a 3:1 ratio.
func TestSchedulerWeightedShare(t *testing.T) {
	sem := newFairScheduler(1, map[string]TenantConfig{
		"gold": {Weight: 3},
		"free": {Weight: 1},
	}, 0)
	ctx := context.Background()
	if err := sem.Acquire(ctx, "warm"); err != nil {
		t.Fatal(err)
	}
	const each = 12
	admitted := make(chan string, 2*each)
	for _, tenant := range []string{"gold", "free"} {
		tenant := tenant
		// Queue the tenant's full backlog before moving to the next so ring
		// order is deterministic.
		for i := 0; i < each; i++ {
			go func() {
				if err := sem.Acquire(ctx, tenant); err == nil {
					admitted <- tenant
				}
			}()
			for sem.Waiting() < i+1 {
				time.Sleep(time.Millisecond)
			}
		}
		if tenant == "gold" {
			for sem.Waiting() < each {
				time.Sleep(time.Millisecond)
			}
		}
	}
	for sem.Waiting() < 2*each {
		time.Sleep(time.Millisecond)
	}

	counts := map[string]int{}
	sem.Release("warm")
	for n := 0; n < 2*each; n++ {
		select {
		case tenant := <-admitted:
			counts[tenant]++
			// Check the interleaving mid-drain, while both tenants still have
			// queued work: gold must be roughly 3x free, so after 8 grants the
			// split is 6/2.
			if n == 7 {
				if counts["gold"] < 5 || counts["free"] < 1 {
					t.Fatalf("weighted share off after 8 grants: %v", counts)
				}
			}
			sem.Release(tenant)
		case <-time.After(5 * time.Second):
			t.Fatalf("drain stalled after %d grants (%v)", n, counts)
		}
	}
	if counts["gold"] != each || counts["free"] != each {
		t.Fatalf("not everyone was served: %v", counts)
	}
}

// TestSchedulerShedQueueFull checks the per-tenant queue bound: once
// MaxQueued requests wait, further arrivals are refused with *ErrShed
// carrying the tenant, a reason and the configured Retry-After.
func TestSchedulerShedQueueFull(t *testing.T) {
	retry := 7 * time.Second
	sem := newFairScheduler(1, map[string]TenantConfig{
		"busy": {MaxQueued: 2},
	}, retry)
	ctx := context.Background()
	if err := sem.Acquire(ctx, "busy"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			if err := sem.Acquire(ctx, "busy"); err == nil {
				done <- struct{}{}
			}
		}()
	}
	for sem.Waiting() < 2 {
		time.Sleep(time.Millisecond)
	}
	err := sem.Acquire(ctx, "busy")
	var shed *ErrShed
	if !errors.As(err, &shed) {
		t.Fatalf("over-quota acquire returned %v, want *ErrShed", err)
	}
	if shed.Tenant != "busy" || shed.Reason != "queue full" || shed.RetryAfter != retry {
		t.Fatalf("shed fields wrong: %+v", shed)
	}
	// Another tenant is unaffected by busy's full queue. The round-robin may
	// admit "other" before busy's queued waiters (that is the no-starvation
	// property), so drain the three waiters in whatever order they are
	// granted — assuming busy goes first deadlocks on a single slot.
	otherErr := make(chan error, 1)
	go func() { otherErr <- sem.Acquire(ctx, "other") }()
	otherAdmitted := false
	sem.Release("busy")
	for served := 0; served < 3; served++ {
		select {
		case <-done:
			sem.Release("busy")
		case err := <-otherErr:
			if err != nil {
				t.Fatalf("other tenant shed alongside busy: %v", err)
			}
			sem.Release("other")
			otherAdmitted = true
		case <-time.After(5 * time.Second):
			t.Fatalf("drain stalled after %d grants", served)
		}
	}
	if !otherAdmitted {
		t.Fatal("other tenant was never admitted")
	}
}

// TestSchedulerPriorityShed checks both halves of the priority contract:
// best-effort work is shed outright while the more-important backlog exceeds
// capacity, and when it does queue it is only served after the class above.
func TestSchedulerPriorityShed(t *testing.T) {
	sem := newFairScheduler(1, map[string]TenantConfig{
		"fg": {Priority: 0},
		"bg": {Priority: 1},
	}, 0)
	ctx := context.Background()
	if err := sem.Acquire(ctx, "fg"); err != nil {
		t.Fatal(err)
	}
	fgDone := make(chan error, 1)
	go func() { fgDone <- sem.Acquire(ctx, "fg") }()
	for sem.Waiting() < 1 {
		time.Sleep(time.Millisecond)
	}
	// Priority-0 backlog (weight 1) >= capacity (1): best-effort work is
	// refused immediately.
	var shed *ErrShed
	if err := sem.Acquire(ctx, "bg"); !errors.As(err, &shed) {
		t.Fatalf("best-effort acquire returned %v, want *ErrShed", err)
	} else if shed.Reason != "priority backlog" {
		t.Fatalf("shed reason = %q, want priority backlog", shed.Reason)
	}
	// Serve the fg waiter; with the backlog drained, bg queues normally and
	// is admitted once fg releases.
	sem.Release("fg")
	if err := <-fgDone; err != nil {
		t.Fatal(err)
	}
	bgDone := make(chan error, 1)
	go func() { bgDone <- sem.Acquire(ctx, "bg") }()
	for sem.Waiting() < 1 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-bgDone:
		t.Fatal("best-effort work admitted while priority 0 held the slot")
	case <-time.After(20 * time.Millisecond):
	}
	sem.Release("fg")
	if err := <-bgDone; err != nil {
		t.Fatal(err)
	}
	sem.Release("bg")
}

// TestEngineShedAccounting checks the end-to-end split: quota sheds surface
// as *ErrShed from Solve and are counted apart from errors, globally and per
// tenant.
func TestEngineShedAccounting(t *testing.T) {
	stub := &countingSolver{name: "stub", block: make(chan struct{})}
	eng := newTestEngine(t, stub, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.Tenants = map[string]TenantConfig{"busy": {MaxQueued: 1}}
		cfg.ShedRetryAfter = 3 * time.Second
	})
	ctx := context.Background()
	insts := distinctInstances(3)

	running := make(chan error, 1)
	go func() {
		_, err := eng.Solve(ctx, Request{Instance: insts[0], Tenant: "busy"})
		running <- err
	}()
	for eng.Snapshot().Inflight == 0 {
		time.Sleep(time.Millisecond)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := eng.Solve(ctx, Request{Instance: insts[1], Tenant: "busy"})
		queued <- err
	}()
	for eng.Snapshot().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}

	// Queue full: the third request is shed. It must be a distinct instance —
	// solving insts[0] again would coalesce onto the blocked in-flight solve
	// before ever reaching admission.
	_, err := eng.Solve(ctx, Request{Instance: insts[2], Tenant: "busy"})
	var shed *ErrShed
	if !errors.As(err, &shed) {
		t.Fatalf("over-quota solve returned %v, want *ErrShed", err)
	}
	if shed.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter = %s, want the configured 3s", shed.RetryAfter)
	}
	close(stub.block)
	if err := <-running; err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatal(err)
	}

	snap := eng.Snapshot()
	if snap.Shed != 1 || snap.Errors != 0 {
		t.Fatalf("global split wrong: shed=%d errors=%d", snap.Shed, snap.Errors)
	}
	ts, ok := snap.Tenants["busy"]
	if !ok {
		t.Fatalf("no per-tenant snapshot for busy: %+v", snap.Tenants)
	}
	if ts.Shed != 1 || ts.Errors != 0 || ts.Requests != 3 {
		t.Fatalf("tenant split wrong: %+v", ts)
	}
	if res, err := eng.Solve(ctx, Request{Instance: core.NewInstance([]float64{0.5}), Tenant: "busy"}); err != nil {
		t.Fatal(err)
	} else if res.Telemetry.Tenant != "busy" {
		t.Fatalf("telemetry tenant = %q, want busy", res.Telemetry.Tenant)
	}
}

func TestParseTenants(t *testing.T) {
	got, err := ParseTenants("gold:3, free:1:4:32:1 ,plain")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]TenantConfig{
		"gold":  {Weight: 3},
		"free":  {Weight: 1, MaxInflight: 4, MaxQueued: 32, Priority: 1},
		"plain": {},
	}
	if len(got) != len(want) {
		t.Fatalf("ParseTenants = %+v, want %+v", got, want)
	}
	for name, cfg := range want {
		if got[name] != cfg {
			t.Fatalf("tenant %q = %+v, want %+v", name, got[name], cfg)
		}
	}
	for _, bad := range []string{"", ":3", "a:b", "a:1:2:3:4:5", "dup:1,dup:2"} {
		if _, err := ParseTenants(bad); err == nil {
			t.Fatalf("ParseTenants(%q) accepted", bad)
		}
	}
}
