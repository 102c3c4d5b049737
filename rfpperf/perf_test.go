package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refQuantile is the mid-quantile computed the slow way: +Inf when more
// than 1-q of the sample failed, else each distinct finite value's
// mid-rank position counted over the whole sample and linear interpolation
// between the positions that bracket q.
func refQuantile(samples []int64, q float64) float64 {
	distinct := map[int64]bool{}
	for _, s := range samples {
		distinct[s] = true
	}
	var vs []int64
	for v := range distinct {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	pos := func(v int64) float64 {
		below, equal := 0, 0
		for _, s := range samples {
			if s < v {
				below++
			} else if s == v {
				equal++
			}
		}
		return (float64(below) + float64(equal)/2) / float64(len(samples))
	}
	f := func(v int64) float64 {
		if v == inf {
			return math.Inf(1)
		}
		return float64(v)
	}
	failed := 0
	for _, s := range samples {
		if s == inf {
			failed++
		}
	}
	if q > 1-float64(failed)/float64(len(samples)) {
		return math.Inf(1)
	}
	if q <= pos(vs[0]) {
		return f(vs[0])
	}
	for i := 1; i < len(vs); i++ {
		if vs[i] == inf {
			break
		}
		lo, hi := pos(vs[i-1]), pos(vs[i])
		if q <= hi {
			return f(vs[i-1]) + (q-lo)/(hi-lo)*(f(vs[i])-f(vs[i-1]))
		}
	}
	last := vs[len(vs)-1]
	if last == inf && len(vs) > 1 {
		last = vs[len(vs)-2]
	}
	return f(last)
}

func sorted(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestQuantileEdgeCases(t *testing.T) {
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("empty sample: ok = true")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v, _ := quantile([]int64{42}, q); v != 42 {
			t.Errorf("one sample: q%v = %v, want 42", q, v)
		}
		if v, _ := quantile([]int64{7, 7, 7, 7}, q); v != 7 {
			t.Errorf("all ties: q%v = %v, want 7", q, v)
		}
	}
	// Without ties the mid-quantile is the Hazen quantile: 1..100 puts
	// value k at (k-0.5)/100.
	var hundred []int64
	for i := int64(1); i <= 100; i++ {
		hundred = append(hundred, i)
	}
	if v, _ := quantile(hundred, 0.5); v != 50.5 {
		t.Errorf("1..100: p50 = %v, want 50.5", v)
	}
	if v, _ := quantile(hundred, 0.99); math.Abs(v-99.5) > 1e-9 {
		t.Errorf("1..100: p99 = %v, want 99.5", v)
	}
	// Mass inside a tie moves the figure: 90% of samples at 10 with the
	// rest split above and below.
	a := sorted(append(append(fill(10, 90), fill(9, 4)...), fill(11, 6)...))
	b := sorted(append(append(fill(10, 90), fill(9, 6)...), fill(11, 4)...))
	va, _ := quantile(a, 0.5)
	vb, _ := quantile(b, 0.5)
	if !(va > 10 && vb < 10) {
		t.Errorf("tie of 90 at 10: p50 %v (more above) and %v (more below), want above and below 10", va, vb)
	}
}

func fill(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestQuantileFailuresAreInfinite(t *testing.T) {
	// 11 of 1000 failed: more than 1% of the sample, so p99 is a failure.
	l := summarise(sorted(append(fill(5, 989), fill(inf, 11)...)))
	if !math.IsInf(l.P99, 1) || l.usable() == "" {
		t.Errorf("1.1%% failed: p99 %v usable %q, want +Inf and unusable", l.P99, l.usable())
	}
	if l.Failed != 11 || l.P50 != 5 {
		t.Errorf("failed %d p50 %v, want 11 and 5", l.Failed, l.P50)
	}
	// Exactly 1% failed: p99 is the last finite sample, as by nearest rank.
	if l := summarise(sorted(append(fill(5, 990), fill(inf, 10)...))); l.P99 != 5 {
		t.Errorf("1%% failed: p99 = %v, want 5", l.P99)
	}
}

func TestBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n, beyond int
		usable    bool
	}{{999, 9, false}, {1000, 10, true}, {1001, 10, true}, {1100, 11, true}, {10, 0, false}, {1, 0, false}} {
		xs := make([]int64, c.n)
		for i := range xs {
			xs[i] = int64(i)
		}
		l := summarise(xs)
		if l.Beyond99 != c.beyond || (l.usable() == "") != c.usable {
			t.Errorf("n=%d: beyond %d usable %q, want %d / %v", c.n, l.Beyond99, l.usable(), c.beyond, c.usable)
		}
	}
}

func TestQuantileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]int64, n)
		for i := range xs {
			switch {
			case rng.Intn(50) == 0:
				xs[i] = inf
			default:
				xs[i] = int64(rng.Intn(1 + trial%20)) // few distinct values: many ties
			}
		}
		s := sorted(xs)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			got, _ := quantile(s, q)
			want := refQuantile(xs, q)
			if !(got == want || math.Abs(got-want) <= 1e-9*math.Abs(want)) {
				t.Fatalf("trial %d n=%d q=%v: got %v, want %v (samples %v)", trial, n, q, got, want, s)
			}
		}
	}
}

// TestRulerImports keeps the end-to-end figures off the program's own
// measurement code: no file imports stats, experiments or scenario, and
// telemetry feeds only the traced run's per-layer figures in trace.go.
func TestRulerImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch path {
			case "rfp/internal/stats", "rfp/internal/experiments", "rfp/internal/scenario":
				t.Errorf("%s imports %s", f, path)
			case "rfp/internal/telemetry":
				if f != "trace.go" {
					t.Errorf("%s imports %s; only trace.go may", f, path)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code naming the same
// workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q in BENCHMARK.json, %q / %q in code", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s in BENCHMARK.json, %s %s in code", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: rfpperf
Type: cpu
Duration: 2s, Total samples = 100ms ( 5.00%)
-----------+-------------------------------------------------------
      40ms   runtime.chanrecv
             runtime.chanrecv1
             rfp/internal/sim.(*Proc).park
-----------+-------------------------------------------------------
      30ms   rfp/internal/kvstore/kv.(*BucketStore).Put
             rfp/internal/kvstore/jakiro.(*Server).Preload
-----------+-------------------------------------------------------
      20ms   runtime.memmove
             rfp/internal/rnic.(*NIC).complete
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`)
	got, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sched": 0.4, "kvstore": 0.3, "rnic": 0.2, "gc": 0.1}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s share %v, want %v (all %v)", k, got[k], v, got)
		}
	}
}

// TestRepsReplay runs every workload twice, once traced, and checks that
// the virtual figures replay exactly and that each workload's self-check
// and output checks hold.
func TestRepsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	outDir = t.TempDir()
	for _, s := range specs {
		in := s.generate(2)[0]
		a := runRep(s, inputSeed(2, 0), 0, in, false)
		b := runRep(s, inputSeed(2, 0), 0, in, true)
		if a.virt != b.virt {
			t.Errorf("%s: traced rep %v, untraced %v", s.name, b.virt, a.virt)
		}
		for _, p := range a.problems {
			t.Errorf("%s: %s", s.name, p)
		}
		if a.failed != 0 {
			t.Errorf("%s: %d of %d ops failed", s.name, a.failed, a.attempted)
		}
	}
}

// TestFailoverDefect pins a known defect of the replica package (README.md,
// "Known defect"): replica-quorum with one leader crash and the failover
// scenario's recovery settings gives a history that linz rejects. Once the
// replica executes every PUT once, this test fails; then the benchmark
// can measure the failover again.
func TestFailoverDefect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a replica rep")
	}
	outDir = t.TempDir()
	s := *specByName("replica-quorum")
	s.build = buildReplica(true)
	res := runRep(&s, inputSeed(2, 0), 0, s.generate(2)[0], false)
	for _, p := range res.problems {
		if strings.HasPrefix(p, "linz verdict illegal") {
			return
		}
	}
	t.Errorf("linz accepts the failover history (problems: %q); measure the failover again and update README.md and this test", res.problems)
}
