package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/router"
	"crsharing/internal/service"
)

// workload is one traffic mix the benchmark drives.
type workload struct {
	name string
	why  string
	// sloMS is the latency limit behind slo_ratio: an attempt meets it when
	// it succeeds within this many milliseconds of being sent (closed loop)
	// or of being due (open loop).
	sloMS float64
	fleet bool // two backends behind a router, one drained
	open  bool // open loop at onlineRate, else closed loop
}

var workloads = []workload{
	{name: "hot-repeat", sloMS: 20,
		why: "a warmed working set repeated, so every answer is a cache hit and the service path does all the work"},
	{name: "cold-portfolio", sloMS: 250,
		why: "distinct instances solved by the default portfolio, so the kernels, admission and verification do the work"},
	{name: "online-mixed", sloMS: 100, open: true,
		why: "mutation chains, repeats, batches and jobs at a fixed rate, so cache inserts, warm starts and queues are used"},
	{name: "fleet-drain", sloMS: 20, fleet: true,
		why: "a warmed working set behind a router, three quarters of it owned by a drained backend, so routing and peer fill do the work"},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// callKind is the endpoint a request goes to, which fixes how its response
// is checked.
type callKind uint8

const (
	callSolve callKind = iota // POST /v1/solve
	callBatch                 // POST /v1/batch-solve
	callJob                   // POST /v1/jobs, followed to completion
)

// Input sizes. Instances are random unit-size instances on 2-4 processors.
// Two jobs per processor keeps the default portfolio's slowest solves in the
// tens of milliseconds; from three jobs up, a few instances per thousand
// make its exact members search for seconds, and a run's throughput then
// depends on how many of those its seed draws.
const (
	hotSetSize   = 64
	coldDeadline = "2s"
	onlineRate   = 1500 // arrivals per second: about half of measured capacity (see README.md)
	chainLength  = 16   // mutation steps before a chain restarts from a new base
	recentWindow = 8    // chain members a repeat may pick from
	batchSize    = 4
	onlineSolver = "branch-and-bound"
)

// stream returns the rand stream of one input of one seed; distinct salts
// never share a stream.
func stream(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

func randomInstance(rng *rand.Rand) *core.Instance {
	return gen.Random(rng, 2+rng.Intn(3), 2, 0.05, 0.95)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// request is one HTTP call of a workload: its body and the instances the
// answer must be checked against.
type request struct {
	kind  callKind
	body  []byte
	insts []*core.Instance
	// seq is the 1-based position of a cold-portfolio request in its
	// stream (0 for every other request), so a kept answer can name its
	// request without holding it; see replayCold.
	seq int
}

func solveRequest(inst *core.Instance, solverName, timeout string) request {
	body := mustJSON(service.SolveRequest{Solver: solverName, Instance: inst, Timeout: timeout, IncludeSchedule: true})
	return request{kind: callSolve, body: body, insts: []*core.Instance{inst}}
}

// hotSet is the working set of hot-repeat.
func hotSet(seed int64) []request {
	rng := stream(seed, 1)
	out := make([]request, hotSetSize)
	for i := range out {
		out[i] = solveRequest(randomInstance(rng), "", "")
	}
	return out
}

// fleetDrainedShare is the share of fleet-drain's working set that the
// drained backend owns. Requests for those keys take the peer-fill path,
// the rest only the router hop. Left to chance, the share sits near one
// half, where the median latency falls on the edge between the two paths'
// latencies and jumps between them from run to run; at three quarters both
// the median and the 90th percentile fall on the peer-fill path.
const fleetDrainedShare = 0.75

// fleetSet is fleet-drain's working set: instances of hot-repeat's stream,
// in order, each kept while its owner still has room, until the drained
// backend (fleetNames[1]) owns fleetDrainedShare of hotSetSize and the live
// one the rest.
func fleetSet(seed int64) []request {
	rng := stream(seed, 1)
	room := []int{hotSetSize - int(fleetDrainedShare*hotSetSize), int(fleetDrainedShare * hotSetSize)}
	owner := newOwnerOracle()
	defer owner.close()
	var out []request
	for len(out) < hotSetSize {
		r := solveRequest(randomInstance(rng), "", "")
		if o := owner.of(r.body); room[o] > 0 {
			room[o]--
			out = append(out, r)
		}
	}
	return out
}

// ownerOracle asks a router over fleetNames which backend owns a request:
// its client notes where the router sends and answers without sending.
type ownerOracle struct {
	rt   *router.Router
	sent *noteHost
}

func newOwnerOracle() *ownerOracle {
	sent := &noteHost{}
	rt, err := router.New(router.Config{Backends: fleetNames, VNodes: routerVNodes, Client: &http.Client{Transport: sent}})
	if err != nil {
		panic(err) // the configuration is fixed and valid
	}
	return &ownerOracle{rt: rt, sent: sent}
}

func (o *ownerOracle) close() { o.rt.Close() }

// of returns the index in fleetNames of the backend owning a solve request.
func (o *ownerOracle) of(body []byte) int {
	o.rt.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	for i, name := range fleetNames {
		if "http://"+o.sent.host == name {
			return i
		}
	}
	panic("router sent to " + o.sent.host + ", not a fleet backend")
}

// noteHost is a RoundTripper that notes the host of each request and
// answers it with an empty 200.
type noteHost struct{ host string }

func (n *noteHost) RoundTrip(r *http.Request) (*http.Response, error) {
	n.host = r.URL.Host
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: http.NoBody, Request: r}, nil
}

// hotDraws is the draw sequence of closed-loop client c over the working
// set.
func hotDraws(seed int64, c int) *rand.Rand { return stream(seed, 100+int64(c)) }

// coldStream hands out the cold-portfolio instances in stream order; every
// call returns the next distinct instance.
type coldStream struct {
	mu  sync.Mutex
	rng *rand.Rand
	n   int
}

func newColdStream(seed int64) *coldStream { return &coldStream{rng: stream(seed, 2)} }

func (s *coldStream) next() request {
	s.mu.Lock()
	inst := randomInstance(s.rng)
	s.n++
	seq := s.n
	s.mu.Unlock()
	r := solveRequest(inst, "", coldDeadline)
	r.seq = seq
	return r
}

// replayCold regenerates the first n requests of seed's cold stream.
func replayCold(seed int64, n int) []request {
	s := newColdStream(seed)
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// arrival is one open-loop arrival: due after the start of the timed phase.
type arrival struct {
	due time.Duration
	request
}

// onlineArrivals is the online-mixed schedule: seconds of arrivals at
// onlineRate. Half advance a mutation chain by one step (a fresh solve
// the neighbor index can warm-start), a quarter repeat a recent chain
// member, 15% batch the next batchSize chain steps, and 10% submit the next
// step as a job.
func onlineArrivals(seed int64, seconds int) []arrival {
	rng := stream(seed, 3)
	var head *core.Instance
	steps := 0
	var recent []request
	step := func() *core.Instance {
		if head == nil || steps == chainLength {
			head = gen.RandomUneven(rng, 2+rng.Intn(3), 2, 3, 0.05, 0.95)
			steps = 0
		} else {
			head = gen.Mutate(rng, head, gen.Mutations[rng.Intn(len(gen.Mutations))])
		}
		steps++
		return head
	}
	remember := func(r request) {
		recent = append(recent, r)
		if len(recent) > recentWindow {
			recent = recent[1:]
		}
	}
	n := onlineRate * seconds
	out := make([]arrival, n)
	for i := range out {
		out[i].due = time.Duration(i) * time.Second / onlineRate
		switch p := rng.Float64(); {
		case p < 0.5 || len(recent) == 0:
			r := solveRequest(step(), onlineSolver, "")
			remember(r)
			out[i].request = r
		case p < 0.75:
			out[i].request = recent[rng.Intn(len(recent))]
		case p < 0.9:
			insts := make([]*core.Instance, batchSize)
			for k := range insts {
				insts[k] = step()
			}
			body := mustJSON(service.BatchRequest{Solver: onlineSolver, Instances: insts})
			out[i].request = request{kind: callBatch, body: body, insts: insts}
		default:
			inst := step()
			body := mustJSON(service.JobRequest{Solver: onlineSolver, Instance: inst})
			out[i].request = request{kind: callJob, body: body, insts: []*core.Instance{inst}}
		}
	}
	return out
}
