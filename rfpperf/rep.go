package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/faults"
	"rfp/internal/kvstore/kv"
	"rfp/internal/linz"
	"rfp/internal/replica"
	"rfp/internal/rnic"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// failKind is an op's outcome.
type failKind uint8

const (
	ok       failKind = iota
	failErr           // the call returned an error
	failMiss          // a preloaded key was not found
	failBad           // the value did not match its key (and version)
)

// opRec is one issued op. Times are virtual ns; end < 0 means the op was
// still in flight when the drain gave up.
type opRec struct {
	start, end int64
	get        bool
	fail       failKind
}

// thread is one closed-loop client thread's inputs and records.
type thread struct {
	id        int
	ops       []workload.Op
	recs      []opRec
	buf       []byte
	log       *linz.ClientLog
	exhausted bool // issued its whole stream before the window closed
	// posts and inflightSum measure the pipelined client's mean depth.
	posts, inflightSum uint64
}

// maxValue bounds every value a workload writes or reads.
const maxValue = 1024

// drainCap bounds the virtual time in-flight ops get to finish after the
// window closes; drainStep is the granularity of that wait.
const (
	drainCap  = 2 * sim.Millisecond
	drainStep = 5 * sim.Microsecond
)

// rep is one repetition of a workload: set-up, warm-up, window, drain and
// verdict on a fresh environment.
type rep struct {
	spec *spec
	seed int64

	env            *sim.Env
	servers        []*fabric.Machine
	clientMachines []*fabric.Machine
	threads        []*thread
	stores         []*kv.BucketStore
	stopped        bool // the window has closed: issue nothing new
	running        int  // load procs still in their loop

	coreStats      func() core.ClientStats // nil where clients hide their connections
	svc            *replica.Service
	replicaClients []*replica.Client
	inj            *faults.Injector
	rings          int // RFP rings driven by the pipelined clients

	hostPhase map[string]time.Duration
	spans     *spanLog   // traced reps only
	tracer    *repTracer // traced reps only
	linzRes   linz.Result
	t0, t1    sim.Time
	before    counters
	after     counters
}

// result is what one rep reports.
type result struct {
	virt       virtual
	setupS     float64
	hostNsOp   float64
	heapMB     float64
	layers     map[string]float64
	attempted  int
	failed     int
	misses     int // GETs of a preloaded key that found nothing
	bad        int // GETs whose value did not match its key
	problems   []string
	input      int     // index of the run's input set this rep used
	gets, puts []int64 // sorted latency samples of ops issued in the window
	getLat     latency
	putLat     latency
	unavailUs  float64
	profile    string // traced reps: the CPU profile written
}

// virtual holds virtual-clock end-to-end figures; two reps of one input
// set must agree on them exactly.
type virtual struct {
	MOPS           float64
	GetP50, GetP99 float64
	PutP50, PutP99 float64
	Events         uint64 // events retired in the window
	Ops            uint64 // ops completed in the window
}

func (v virtual) String() string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return fmt.Sprintf("mops=%s get=%s/%s put=%s/%s events=%d ops=%d",
		f(v.MOPS), f(v.GetP50), f(v.GetP99), f(v.PutP50), f(v.PutP99), v.Events, v.Ops)
}

// virtual computes the end-to-end virtual figures of ops completed over
// sets windows.
func (s *spec) virtual(ops uint64, get, put latency, sets int) virtual {
	return virtual{
		MOPS:   float64(ops) / (float64(sets) * float64(s.window) / 1e3),
		GetP50: us(get.P50), GetP99: us(get.P99),
		PutP50: us(put.P50), PutP99: us(put.P99),
		Ops: ops,
	}
}

// us converts a latency to µs. A failed-op percentile (+Inf) has no JSON
// form; it reads -1, and the run fails on it.
func us(ns float64) float64 {
	if math.IsInf(ns, 1) {
		return -1
	}
	return ns / 1e3
}

func (r *rep) phase(name string, fn func()) {
	start := time.Now()
	fn()
	d := time.Since(start)
	r.hostPhase[name] += d
	r.spans.host(name, start, d)
}

func (r *rep) exit() { r.running-- }

// syncLoop drives one synchronous client thread: issue, wait, record, next.
func (r *rep) syncLoop(t *thread, do func(p *sim.Proc, op workload.Op, seq int) failKind) func(*sim.Proc) {
	return func(p *sim.Proc) {
		defer r.exit()
		for i, op := range t.ops {
			if r.stopped {
				return
			}
			t.recs = append(t.recs, opRec{start: int64(p.Now()), end: -1, get: op.Kind == workload.Get})
			f := do(p, op, i)
			t.recs[i].end, t.recs[i].fail = int64(p.Now()), f
		}
		t.exhausted = true
	}
}

// counters is a snapshot of every layer's cumulative counters.
type counters struct {
	events           uint64
	srvBusy, cliBusy int64
	goroutines       int
	srvNIC, cliNIC   rnic.Stats
	perServerIn      []uint64
	core             core.ClientStats
	replica          replica.Stats
	allocB, gcs      uint64
	gcCPU, allCPU    float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func (r *rep) snapshot() counters {
	c := counters{events: r.env.EventsRetired(), goroutines: runtime.NumGoroutine()}
	for _, m := range r.servers {
		c.srvBusy += m.BusyNs
		addNIC(&c.srvNIC, m.NIC().Stats)
		c.perServerIn = append(c.perServerIn, m.NIC().Stats.InOps)
	}
	for _, m := range r.clientMachines {
		c.cliBusy += m.BusyNs
		addNIC(&c.cliNIC, m.NIC().Stats)
	}
	if r.coreStats != nil {
		c.core = r.coreStats()
	}
	if r.svc != nil {
		c.replica = r.svc.Stats()
	}
	metrics.Read(runtimeSamples)
	c.allocB = runtimeSamples[0].Value.Uint64()
	c.gcs = runtimeSamples[1].Value.Uint64()
	c.gcCPU = runtimeSamples[2].Value.Float64()
	c.allCPU = runtimeSamples[3].Value.Float64()
	return c
}

func addNIC(dst *rnic.Stats, s rnic.Stats) {
	dst.OutOps += s.OutOps
	dst.InOps += s.InOps
	dst.OutBytes += s.OutBytes
	dst.InBytes += s.InBytes
}

// runRep executes one repetition over the pre-generated inputs.
func runRep(s *spec, seed int64, input int, in [][]workload.Op, traced bool) (res result) {
	r := &rep{spec: s, seed: seed, hostPhase: map[string]time.Duration{}}
	res.input = input
	heap := startHeapSampler()
	if traced {
		r.spans = newSpanLog()
		r.spans.host("workload.gen", genSpan.start, genSpan.d)
		r.tracer = startTracer(r)
	}
	r.threads = make([]*thread, s.threads)
	for i := range r.threads {
		r.threads[i] = &thread{id: i, ops: in[i], recs: make([]opRec, 0, len(in[i])), buf: make([]byte, maxValue)}
	}
	r.running = s.threads

	setupStart := time.Now()
	r.env = sim.NewEnv(seed)
	defer r.env.Close()
	err := s.build(r)
	setup := time.Since(setupStart)
	r.spans.host("setup", setupStart, setup)
	if err != nil {
		heap.stop()
		if r.tracer != nil {
			_ = r.tracer.stop() // the set-up error is the one to report
		}
		res.problems = append(res.problems, err.Error())
		return res
	}

	r.t0 = sim.Time(s.warmup)
	r.t1 = r.t0.Add(s.window)
	r.phase("sim.warmup", func() { r.env.Run(r.t0) })

	measureStart := time.Now()
	r.before = r.snapshot()
	r.phase("sim.window", func() { r.env.Run(r.t1) })
	r.after = r.snapshot()
	r.stopped = true
	r.phase("sim.drain", func() {
		for r.running > 0 && r.env.Now() < r.t1.Add(drainCap) {
			r.env.Run(r.env.Now().Add(drainStep))
		}
	})
	res = r.verdict()
	res.input = input
	measured := time.Since(measureStart)
	res.heapMB = heap.stop()
	res.setupS = setup.Seconds()
	res.hostNsOp = float64(measured.Nanoseconds()) / float64(max(res.virt.Ops, 1))
	r.layerMetrics(&res)
	if err := s.selfCheck(res.layers); err != nil {
		res.problems = append(res.problems, s.name+" self-check: "+err.Error())
	}
	if traced {
		r.tracer.finish(r, &res)
	}
	return res
}

// heapSampler tracks the peak live heap while a rep runs.
type heapSampler struct {
	stopc, done chan struct{}
	peak        uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
