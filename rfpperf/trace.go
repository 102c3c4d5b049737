package main

// The traced run: spans the benchmark records around its calls into each
// layer, a telemetry.Recorder on the RFP clients, and a CPU profile
// attributed per package with go tool pprof. None of it feeds an
// end-to-end figure.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"rfp/internal/telemetry"
)

// outDir receives the traced run's span logs and CPU profiles.
var outDir string

// span is one recorded interval. Host spans are ns since the rep began;
// virtual spans are simulated ns. An op's span carries the op's id.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Clock  string `json:"clock"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// hostSpans fixes each host span's id and parent, so a span can be logged
// when it ends, before its parent has.
var hostSpans = map[string][2]int64{
	"rep":             {1, 0},
	"setup":           {2, 1},
	"fabric.build":    {3, 2},
	"kvstore.preload": {4, 2},
	"kvstore.connect": {5, 2},
	"sim.warmup":      {6, 1},
	"sim.window":      {7, 1},
	"sim.drain":       {8, 1},
	"linz.check":      {9, 1},
	"workload.gen":    {10, 0},
}

// spanLog holds spans in memory until the rep ends. A nil log records
// nothing, so untraced reps pay one nil check per boundary.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) host(name string, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	id := hostSpans[name]
	s := start.Sub(l.origin).Nanoseconds()
	l.spans = append(l.spans, span{ID: id[0], Parent: id[1], Name: name, Clock: "host", Start: s, End: s + d.Nanoseconds()})
}

// repTracer owns a traced rep's recorder and profile.
type repTracer struct {
	rec     *telemetry.Recorder
	path    string
	prof    *os.File
	started time.Time
}

// genSpan is the run's input generation, logged with every traced rep's
// spans (before the rep's origin, so at a negative start).
var genSpan struct {
	start time.Time
	d     time.Duration
}

// traceSeq numbers the traced reps of one run, for file names.
var traceSeq int

func startTracer(r *rep) *repTracer {
	traceSeq++
	t := &repTracer{rec: telemetry.New(telemetry.Config{}), started: time.Now()}
	t.path = filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%d.pprof", r.spec.name, r.seed, traceSeq))
	f, err := os.Create(t.path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfpperf: cpu profile: %v\n", err)
		t.path = ""
		return t
	}
	t.prof = f
	return t
}

// stop ends the CPU profile, if one is running.
func (t *repTracer) stop() error {
	if t.prof == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := t.prof.Close()
	t.prof = nil
	return err
}

// attachRecorder hooks the traced rep's recorder into an RFP client.
func (r *rep) attachRecorder(c interface{ SetRecorder(*telemetry.Recorder) }) {
	if r.tracer != nil {
		c.SetRecorder(r.tracer.rec)
	}
}

// finish stops the profile, adds the recorder's figures to res.layers and
// writes the rep's spans, one op span per issued op.
func (t *repTracer) finish(r *rep, res *result) {
	if err := t.stop(); err != nil {
		res.problems = append(res.problems, "cpu profile: "+err.Error())
	} else {
		res.profile = t.path
	}
	snap := t.rec.Snapshot()
	res.layers["telemetry.send_leg_us"] = snap.Send.Mean() / 1e3
	res.layers["telemetry.fetch_leg_us"] = snap.FetchLeg.Mean() / 1e3
	res.layers["telemetry.reply_leg_us"] = snap.ReplyLeg.Mean() / 1e3
	res.layers["telemetry.ring_occupancy"] = snap.MeanOccupancy()
	if r.rings > 0 && snap.MeanOccupancy() <= 1 {
		res.problems = append(res.problems, fmt.Sprintf("telemetry ring occupancy %.3f, want > 1", snap.MeanOccupancy()))
	}
	r.spans.host("rep", t.started, time.Since(t.started))
	for _, th := range r.threads {
		for i, rec := range th.recs {
			parent := hostSpans["sim.window"][0]
			if rec.start < int64(r.t0) {
				parent = hostSpans["sim.warmup"][0]
			}
			name := "op.put"
			if rec.get {
				name = "op.get"
			}
			r.spans.spans = append(r.spans.spans, span{ID: int64(th.id)<<32 | int64(i), Parent: parent,
				Name: name, Clock: "virtual", Start: rec.start, End: rec.end})
		}
	}
	if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", r.spec.name, r.seed)), r.spans.spans); err != nil {
		res.problems = append(res.problems, "span log: "+err.Error())
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostBuckets are the host-time shares the traced run reports, by the
// package a profile sample is charged to.
var hostBuckets = []string{"sim", "rnic", "core", "kvstore", "replica", "linz", "sched", "gc", "bench", "other"}

// schedFrames mark a runtime sample as goroutine scheduling: the sim
// kernel's proc handoff parks and readies goroutines over channels.
var schedFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.gopark", "runtime.goready",
	"runtime.schedule", "runtime.park_m", "runtime.mcall", "runtime.findRunnable",
	"runtime.mstart", "runtime.goexit0", "runtime.selectgo", "runtime.ready",
	"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.notesleep",
}

// bucketOf charges one sampled stack (leaf first) to a host bucket. GC
// work wins wherever it sits; a runtime leaf under a scheduling frame is
// sched; any other runtime leaf (memmove, map access) is charged to the
// first non-runtime caller.
func bucketOf(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" ||
			strings.HasPrefix(f, "runtime.markroot") || f == "runtime.scanobject" {
			return "gc"
		}
	}
	leaf := 0
	for leaf < len(stack) && isRuntime(stack[leaf]) {
		leaf++
	}
	if leaf > 0 {
		for _, f := range stack[:min(len(stack), leaf+1)] {
			for _, s := range schedFrames {
				if strings.HasPrefix(f, s) {
					return "sched"
				}
			}
		}
	}
	if leaf == len(stack) {
		return "other"
	}
	pkg := pkgOf(stack[leaf])
	switch {
	case strings.HasPrefix(pkg, "rfp/internal/kvstore"):
		return "kvstore"
	case strings.HasPrefix(pkg, "rfp/internal/"):
		name := strings.TrimPrefix(pkg, "rfp/internal/")
		for _, b := range hostBuckets {
			if name == b {
				return b
			}
		}
	case pkg == "main":
		return "bench"
	}
	return "other"
}

func isRuntime(f string) bool {
	pkg := pkgOf(f)
	return pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime") || pkg == "sync/atomic" || pkg == "internal/sync"
}

// pkgOf returns the import path of a pprof function name such as
// "rfp/internal/sim.(*lane).drain".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attribute runs go tool pprof -traces over the profiles and returns each
// host bucket's share of the samples.
func attribute(profiles []string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, profiles...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces sums the weight of each sample in pprof's -traces output by
// host bucket. A sample is a block between separator lines whose first
// line is "<weight> <leaf function>" and whose later lines are callers.
func parseTraces(out []byte) (map[string]float64, error) {
	weights := map[string]float64{}
	var total float64
	var stack []string
	var w float64
	flush := func() {
		if len(stack) > 0 {
			weights[bucketOf(stack)] += w
			total += w
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			if len(fields) < 2 {
				continue // header lines
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue
			}
			w = d.Seconds()
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	for k := range weights {
		weights[k] /= total
	}
	return weights, nil
}
