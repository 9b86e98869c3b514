package main

import (
	"bytes"
	"testing"
)

// bodies returns, for one workload and seed, the request bodies in the order
// the generator hands them out (for hot-repeat and fleet-drain: the working
// set followed by the first draws of two clients).
func bodies(t *testing.T, name string, seed int64) [][]byte {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(w, seed, 2)
	var out [][]byte
	switch {
	case in.cold != nil:
		for i := 0; i < 200; i++ {
			out = append(out, in.cold.next().body)
		}
	case len(in.arrivals) > 0:
		for _, a := range in.arrivals {
			out = append(out, append([]byte(a.due.String()+" "), a.body...))
		}
	default:
		for _, r := range in.hot {
			out = append(out, r.body)
		}
		for c := 0; c < 2; c++ {
			draws := hotDraws(seed, c)
			for i := 0; i < 200; i++ {
				out = append(out, in.hot[draws.Intn(len(in.hot))].body)
			}
		}
	}
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range workloads {
		a, b := bodies(t, w.name, 7), bodies(t, w.name, 7)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d bodies from the same seed", w.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: body %d differs between two generations from the same seed", w.name, i)
			}
		}
		c := bodies(t, w.name, 8)
		if bytes.Equal(a[0], c[0]) {
			t.Errorf("%s: seeds 7 and 8 generate the same first body", w.name)
		}
	}
}

func TestOnlineMixUsesEveryEndpoint(t *testing.T) {
	kinds := make(map[callKind]int)
	for _, a := range onlineArrivals(3, 2) {
		kinds[a.kind]++
	}
	for _, k := range []callKind{callSolve, callBatch, callJob} {
		if kinds[k] == 0 {
			t.Errorf("online-mixed schedule has no %v arrivals: %v", k, kinds)
		}
	}
}

func TestReplayColdMatchesStream(t *testing.T) {
	s := newColdStream(5)
	replayed := replayCold(5, 50)
	for i := range replayed {
		r := s.next()
		if r.seq != i+1 || replayed[i].seq != i+1 || !bytes.Equal(r.body, replayed[i].body) {
			t.Fatalf("request %d: replay differs from the stream (seq %d vs %d)", i+1, replayed[i].seq, r.seq)
		}
	}
}

// TestFleetSetOwnership checks that fleet-drain's working set gives the
// drained backend its fixed share of distinct keys.
func TestFleetSetOwnership(t *testing.T) {
	o := newOwnerOracle()
	defer o.close()
	for seed := int64(1); seed <= 3; seed++ {
		set := fleetSet(seed)
		owned := make([]int, len(fleetNames))
		seen := make(map[string]bool)
		for _, r := range set {
			owned[o.of(r.body)]++
			seen[string(r.body)] = true
		}
		if len(set) != hotSetSize || len(seen) != hotSetSize {
			t.Errorf("seed %d: %d requests, %d distinct; want %d", seed, len(set), len(seen), hotSetSize)
		}
		if want := int(fleetDrainedShare * hotSetSize); owned[1] != want {
			t.Errorf("seed %d: the drained backend owns %d keys, want %d", seed, owned[1], want)
		}
	}
}
