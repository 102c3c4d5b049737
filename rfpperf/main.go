// Command rfpperf is the repository's benchmark. It runs one named
// workload on the serial simulation kernel, repeatedly, for a fixed host
// time and prints the workload's metrics on two clocks: virtual (what the
// simulated RFP cluster achieves) and host (what the simulator costs).
// Every op's output is checked; the last line of standard output is one
// JSON object with the verdict and the metrics.
//
//	rfpperf --workload jakiro-fetch --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 interleaves traced
// reps and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// maxProcs pins GOMAXPROCS: the serial kernel runs one goroutine at a
// time, and the second P carries the GC and the heap sampler.
const maxProcs = 2

type metricDef struct{ name, unit string }

// endToEnd are the figures a user of the system sees. Virtual ones come
// from one rep (every rep of a seed agrees on them), host ones are the
// median over the run's reps.
var endToEnd = []metricDef{
	{"mops", "Mops/s"},
	{"get_p50_us", "us"},
	{"get_p99_us", "us"},
	{"put_p50_us", "us"},
	{"put_p99_us", "us"},
	{"host_ns_per_op", "ns"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the traced run's figures, grouped by module.
var perLayer = []metricDef{
	{"sim.events_per_op", "count"}, {"sim.ns_per_event", "ns"}, {"sim.run_s", "s"},
	{"fabric.build_s", "s"}, {"fabric.srv_cpu_util", "ratio"}, {"fabric.cli_cpu_util", "ratio"},
	{"rnic.srv_in_mops", "Mops/s"}, {"rnic.srv_out_mops", "Mops/s"}, {"rnic.cli_out_mops", "Mops/s"},
	{"rnic.srv_in_ops_per_op", "count"}, {"rnic.bytes_per_op", "B"},
	{"core.fetch_reads_per_call", "count"}, {"core.retries_per_call", "count"},
	{"core.second_reads_per_call", "count"}, {"core.reply_frac", "ratio"}, {"core.switches", "count"},
	{"core.send_us_per_call", "us"}, {"core.fetch_us_per_call", "us"}, {"core.reply_wait_us_per_call", "us"},
	{"core.recoveries", "count"}, {"core.deadlines", "count"},
	{"kvstore.preload_s", "s"}, {"kvstore.connect_s", "s"}, {"kvstore.misses", "count"}, {"kvstore.bad_values", "count"},
	{"shard.server_skew", "ratio"}, {"shard.inflight_per_ring", "count"},
	{"replica.local_read_frac", "ratio"}, {"replica.retried_reads_per_get", "count"},
	{"replica.promotions", "count"}, {"replica.truncations", "count"}, {"replica.unavail_us", "us"},
	{"replica.max_serve_age_us", "us"}, {"replica.client_retries", "count"}, {"replica.redirects", "count"},
	{"replica.fallbacks", "count"},
	{"faults.crashes", "count"}, {"faults.restarts", "count"},
	{"linz.check_s", "s"}, {"linz.ops", "count"}, {"linz.nodes_per_op", "count"},
	{"workload.gen_s", "s"},
	{"go.alloc_b_per_op", "B"}, {"go.gc_cycles", "count"}, {"go.gc_cpu_frac", "ratio"}, {"go.goroutines", "count"},
	{"telemetry.send_leg_us", "us"}, {"telemetry.fetch_leg_us", "us"}, {"telemetry.reply_leg_us", "us"},
	{"telemetry.ring_occupancy", "count"},
	{"host.sim_frac", "ratio"}, {"host.rnic_frac", "ratio"}, {"host.core_frac", "ratio"},
	{"host.kvstore_frac", "ratio"}, {"host.replica_frac", "ratio"}, {"host.linz_frac", "ratio"},
	{"host.sched_frac", "ratio"}, {"host.gc_frac", "ratio"}, {"host.bench_frac", "ratio"}, {"host.other_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"check.failed_frac", "ratio"}, {"check.get_samples", "count"}, {"check.put_samples", "count"},
	{"model.validated", "count"}, {"model.mops_err_frac", "ratio"}, {"model.rtt_err_frac", "ratio"},
	{"run.gomaxprocs", "count"}, {"run.reps", "count"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(names(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&outDir, "out", "", "directory for the traced run's spans and profiles")
	flag.Parse()
	s := specByName(*name)
	if s == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || (*trace == 1 && outDir == "") {
		fmt.Fprintf(os.Stderr, "usage: rfpperf --workload {%s} --seed N --seconds N --trace 0|1 [--out DIR]\n", strings.Join(names(), "|"))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	rep, err := run(s, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfpperf:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfpperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func names() []string {
	var ns []string
	for _, s := range specs {
		ns = append(ns, s.name)
	}
	return ns
}

// run generates the input sets once, then repeats the workload, cycling
// through the sets, until the host budget is spent; it reduces the reps to
// one report. Every set runs at least once and one set twice, so each run
// checks that a repeated input replays exactly.
func run(s *spec, seed int64, budget time.Duration, traced bool) (report, error) {
	fmt.Printf("workload %s seed %d gomaxprocs %d: %s\n", s.name, seed, runtime.GOMAXPROCS(0), s.why)
	genStart := time.Now()
	sets := s.generate(seed)
	genSpan.start, genSpan.d = genStart, time.Since(genStart)
	genS := genSpan.d.Seconds()

	var plain, withTrace []result
	start := time.Now()
	for i := 0; i <= s.inputs || time.Since(start) < budget; i++ {
		k := i % s.inputs
		runtime.GC()
		res := runRep(s, inputSeed(seed, k), k, sets[k], false)
		plain = append(plain, res)
		logRep("rep", len(plain), res)
		if traced {
			runtime.GC()
			res := runRep(s, inputSeed(seed, k), k, sets[k], true)
			withTrace = append(withTrace, res)
			logRep("traced rep", len(withTrace), res)
		}
	}

	rep := report{Correct: true, Metrics: map[string]value{}}
	fail := func(format string, args ...any) {
		rep.Correct = false
		fmt.Printf("FAIL: "+format+"\n", args...)
	}
	// The first rep of each input set stands for it; every later rep of
	// the set, traced ones included, must replay it exactly, so tracing
	// provably costs no virtual time.
	firsts := plain[:s.inputs]
	var ops uint64
	var gets, puts []int64
	for i, res := range append(append([]result(nil), plain...), withTrace...) {
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		for _, p := range res.problems {
			fail("rep %d: %s", i+1, p)
		}
		if want := firsts[res.input].virt; res.virt != want {
			fail("rep %d does not replay input set %d: %v vs %v", i+1, res.input, res.virt, want)
		}
	}
	for _, res := range firsts {
		ops += res.virt.Ops
		gets = append(gets, res.gets...)
		puts = append(puts, res.puts...)
	}
	getLat, putLat := summarise(gets), summarise(puts)
	for kind, l := range map[string]latency{"GET": getLat, "PUT": putLat} {
		if why := l.usable(); why != "" {
			fail("%s latency (%d samples): %s", kind, l.N, why)
		}
	}
	v := s.virtual(ops, getLat, putLat, s.inputs)
	fmt.Printf("samples over %d input set(s): GET %d (%d failed, %d beyond p99), PUT %d (%d failed, %d beyond p99); failed_frac %.6f (%d of %d)\n",
		s.inputs, getLat.N, getLat.Failed, getLat.Beyond99, putLat.N, putLat.Failed, putLat.Beyond99,
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	if s.name == "jakiro-fetch" {
		fmt.Printf("model error vs paper Fig. 10: mops %+.2f%% (%.3f vs %.1f), round trips/call %+.2f%% (%.4f vs %.3f)\n",
			100*(v.MOPS/paperMOPS-1), v.MOPS, paperMOPS,
			100*plain[0].layers["model.rtt_err_frac"], 1+plain[0].layers["core.fetch_reads_per_call"], paperRTT)
	} else {
		fmt.Println("model error: unvalidated (no paper reference for this workload)")
	}

	// Medians run over whole cycles of the input sets, so each set weighs
	// the same and figures that are deterministic per set stay so.
	plain = plain[:len(plain)-len(plain)%s.inputs]
	withTrace = withTrace[:len(withTrace)-len(withTrace)%s.inputs]
	hostNs := medianOf(plain, func(r result) float64 { return r.hostNsOp })
	if !traced {
		for name, x := range map[string]float64{
			"mops": v.MOPS, "get_p50_us": v.GetP50, "get_p99_us": v.GetP99,
			"put_p50_us": v.PutP50, "put_p99_us": v.PutP99, "host_ns_per_op": hostNs,
			"setup_s":      medianOf(plain, func(r result) float64 { return r.setupS }),
			"heap_peak_mb": medianOf(plain, func(r result) float64 { return r.heapMB }),
		} {
			rep.Metrics[name] = value{x, unitOf(endToEnd, name)}
		}
		printMetrics(rep.Metrics, endToEnd)
		return rep, nil
	}

	layers := map[string]float64{}
	for _, d := range perLayer {
		layers[d.name] = medianOf(plain, func(r result) float64 { return r.layers[d.name] })
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "telemetry.") {
			layers[d.name] = medianOf(withTrace, func(r result) float64 { return r.layers[d.name] })
		}
	}
	layers["check.get_samples"], layers["check.put_samples"] = float64(getLat.N), float64(putLat.N)
	layers["workload.gen_s"] = genS
	layers["run.reps"] = float64(len(plain))
	layers["trace.overhead_frac"] = medianOf(withTrace, func(r result) float64 { return r.hostNsOp })/hostNs - 1
	var profiles []string
	for _, r := range withTrace {
		if r.profile != "" {
			profiles = append(profiles, r.profile)
		}
	}
	shares, err := attribute(profiles)
	if err != nil {
		return report{}, err
	}
	for _, b := range hostBuckets {
		layers["host."+b+"_frac"] = shares[b]
	}
	for _, d := range perLayer {
		rep.Metrics[d.name] = value{layers[d.name], d.unit}
	}
	printMetrics(rep.Metrics, perLayer)
	return rep, nil
}

func logRep(kind string, n int, r result) {
	fmt.Printf("%s %d: setup %.3fs, host %.1f ns/op, heap %.1f MB, %v\n", kind, n, r.setupS, r.hostNsOp, r.heapMB, r.virt)
}

func medianOf(rs []result, f func(result) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("rfpperf: undeclared metric " + name)
}

func printMetrics(m map[string]value, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("  %-32s %16.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}
