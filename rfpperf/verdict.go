package main

import (
	"fmt"
	"runtime"
	"sort"

	"rfp/internal/linz"
)

// verdict checks every op the rep issued and computes the end-to-end
// figures from the records. Failed and unfinished ops count as failed and
// enter the latency samples as inf.
func (r *rep) verdict() result {
	var res result
	var gets, puts, putDone []int64
	var errs, misses, bad, unfinished int
	t0, t1 := int64(r.t0), int64(r.t1)
	for _, t := range r.threads {
		if t.exhausted {
			res.problems = append(res.problems, fmt.Sprintf("thread %d used all %d generated ops before the window closed", t.id, len(t.ops)))
		}
		for _, rec := range t.recs {
			lat := inf
			switch {
			case rec.end < 0:
				unfinished++
			case rec.fail == failErr:
				errs++
			case rec.fail == failMiss:
				misses++
			case rec.fail == failBad:
				bad++
			default:
				lat = rec.end - rec.start
				if rec.end > t0 && rec.end <= t1 {
					res.virt.Ops++
					if !rec.get {
						putDone = append(putDone, rec.end)
					}
				}
			}
			if rec.start < t0 {
				continue
			}
			if rec.get {
				gets = append(gets, lat)
			} else {
				puts = append(puts, lat)
			}
		}
		res.attempted += len(t.recs)
	}
	res.failed = errs + misses + bad + unfinished
	res.misses, res.bad = misses, bad
	if misses+bad > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d misses and %d bad values on the preloaded key space", misses, bad))
	}
	// No lost ops: every finished op is one completed RFP call.
	if r.coreStats != nil && errs+unfinished == 0 {
		if calls := r.coreStats().Calls; calls != uint64(res.attempted) {
			res.problems = append(res.problems, fmt.Sprintf("core counted %d calls for %d issued ops", calls, res.attempted))
		}
	}
	var evicted uint64
	for _, s := range r.stores {
		evicted += s.Evictions()
	}
	if evicted > 0 {
		res.problems = append(res.problems, fmt.Sprintf("stores evicted %d preloaded pairs", evicted))
	}

	res.gets, res.puts = gets, puts
	res.getLat, res.putLat = summarise(gets), summarise(puts)
	res.virt = r.spec.virtual(res.virt.Ops, res.getLat, res.putLat, 1)
	res.virt.Events = r.after.events - r.before.events
	res.unavailUs = longestGap(putDone, t0, t1)

	if r.svc != nil {
		var logs []*linz.ClientLog
		for _, t := range r.threads {
			logs = append(logs, t.log)
		}
		r.phase("linz.check", func() {
			r.linzRes = linz.CheckKV(linz.Merge(logs...), func(k uint64) (uint32, bool) {
				return 0, k < replicaKeys
			}, linz.Options{})
		})
		if r.linzRes.Verdict != linz.Linearizable {
			res.problems = append(res.problems, fmt.Sprintf("linz verdict %v on %d ops", r.linzRes.Verdict, r.linzRes.Ops))
		}
	}
	return res
}

// longestGap returns the longest stretch of (t0, t1], in µs, with no
// committed PUT completing.
func longestGap(done []int64, t0, t1 int64) float64 {
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	gap, last := int64(0), t0
	for _, d := range append(done, t1) {
		gap = max(gap, d-last)
		last = d
	}
	return float64(gap) / 1e3
}

// layerMetrics fills res.layers from the counter deltas over the window
// and the rep's host phase times.
func (r *rep) layerMetrics(res *result) {
	d := r.after
	b := r.before
	window := float64(r.spec.window)
	wUs := window / 1e3
	ops := float64(max(res.virt.Ops, 1))
	events := float64(max(res.virt.Events, 1))
	m := map[string]float64{}
	res.layers = m

	m["sim.events_per_op"] = float64(res.virt.Events) / ops
	m["sim.ns_per_event"] = float64(r.hostPhase["sim.window"].Nanoseconds()) / events
	m["sim.run_s"] = r.hostPhase["sim.window"].Seconds()

	m["fabric.build_s"] = r.hostPhase["fabric.build"].Seconds()
	srvThreads, cliThreads := 0, 0
	for _, mc := range r.servers {
		srvThreads += mc.Threads()
	}
	for _, mc := range r.clientMachines {
		cliThreads += mc.Threads()
	}
	m["fabric.srv_cpu_util"] = float64(d.srvBusy-b.srvBusy) / (float64(max(srvThreads, 1)) * window)
	// Client threads charge no Machine.Compute; as in the paper's Fig. 15
	// a client thread is busy except while it idles in a reply-mode wait.
	m["fabric.cli_cpu_util"] = float64(d.cliBusy-b.cliBusy) / (float64(max(cliThreads, 1)) * window)
	if r.coreStats != nil {
		m["fabric.cli_cpu_util"] = 1 - float64(d.core.IdleNs-b.core.IdleNs)/(float64(max(cliThreads, 1))*window)
	}

	m["rnic.srv_in_mops"] = float64(d.srvNIC.InOps-b.srvNIC.InOps) / wUs
	m["rnic.srv_out_mops"] = float64(d.srvNIC.OutOps-b.srvNIC.OutOps) / wUs
	m["rnic.cli_out_mops"] = float64(d.cliNIC.OutOps-b.cliNIC.OutOps) / wUs
	m["rnic.srv_in_ops_per_op"] = float64(d.srvNIC.InOps-b.srvNIC.InOps) / ops
	m["rnic.bytes_per_op"] = float64(d.srvNIC.InBytes-b.srvNIC.InBytes+d.srvNIC.OutBytes-b.srvNIC.OutBytes) / ops

	c := d.core
	c0 := b.core
	calls := float64(max(c.Calls-c0.Calls, 1))
	if r.coreStats == nil {
		calls = 1 // no counters: every core figure reads 0
	}
	m["core.fetch_reads_per_call"] = float64(c.FetchReads-c0.FetchReads) / calls
	m["core.retries_per_call"] = float64(c.Retries-c0.Retries) / calls
	m["core.second_reads_per_call"] = float64(c.SecondReads-c0.SecondReads) / calls
	m["core.reply_frac"] = float64(c.ReplyDeliveries-c0.ReplyDeliveries) / calls
	m["core.switches"] = float64(c.SwitchToReply - c0.SwitchToReply + c.SwitchToFetch - c0.SwitchToFetch)
	m["core.send_us_per_call"] = float64(c.SendNs-c0.SendNs) / 1e3 / calls
	m["core.fetch_us_per_call"] = float64(c.FetchNs-c0.FetchNs) / 1e3 / calls
	m["core.reply_wait_us_per_call"] = float64(c.ReplyWaitNs-c0.ReplyWaitNs) / 1e3 / calls
	m["core.recoveries"] = float64(c.FaultRetries - c0.FaultRetries + c.Resends - c0.Resends + c.Reconnects - c0.Reconnects + c.Demotions - c0.Demotions)
	m["core.deadlines"] = float64(c.Deadlines - c0.Deadlines)

	m["kvstore.preload_s"] = r.hostPhase["kvstore.preload"].Seconds()
	m["kvstore.connect_s"] = r.hostPhase["kvstore.connect"].Seconds()
	m["kvstore.misses"], m["kvstore.bad_values"] = float64(res.misses), float64(res.bad)

	lo, hi := ^uint64(0), uint64(0)
	for i, in := range d.perServerIn {
		n := in - b.perServerIn[i]
		lo, hi = min(lo, n), max(hi, n)
	}
	m["shard.server_skew"] = float64(hi) / float64(max(lo, 1))
	var posts, depth uint64
	for _, t := range r.threads {
		posts += t.posts
		depth += t.inflightSum
	}
	if posts > 0 && r.rings > 0 {
		ringsPerThread := float64(r.rings) / float64(len(r.threads))
		m["shard.inflight_per_ring"] = float64(depth) / float64(posts) / ringsPerThread
	}

	rs, rs0 := d.replica, b.replica
	served := float64(rs.LocalReads - rs0.LocalReads + rs.LeaderReads - rs0.LeaderReads)
	m["replica.local_read_frac"] = float64(rs.LocalReads-rs0.LocalReads) / max(served, 1)
	m["replica.retried_reads_per_get"] = float64(rs.RetriedReads-rs0.RetriedReads) / float64(max(res.getLat.N, 1))
	m["replica.promotions"] = float64(rs.Promotions - rs0.Promotions)
	m["replica.truncations"] = float64(rs.Truncations - rs0.Truncations)
	m["replica.max_serve_age_us"] = float64(rs.MaxServeAgeNs) / 1e3
	m["replica.unavail_us"] = 0
	m["replica.client_retries"], m["replica.redirects"], m["replica.fallbacks"] = 0, 0, 0
	if r.svc != nil {
		m["replica.unavail_us"] = res.unavailUs
		for _, rc := range r.replicaClients {
			m["replica.client_retries"] += float64(rc.Retries)
			m["replica.redirects"] += float64(rc.Redirects)
			m["replica.fallbacks"] += float64(rc.Fallbacks)
		}
	}

	m["faults.crashes"], m["faults.restarts"] = 0, 0
	if r.inj != nil {
		fc := r.inj.Counts()
		m["faults.crashes"], m["faults.restarts"] = float64(fc.Crashes), float64(fc.Restarts)
	}

	m["linz.check_s"] = r.hostPhase["linz.check"].Seconds()
	m["linz.ops"] = float64(r.linzRes.Ops)
	m["linz.nodes_per_op"] = float64(r.linzRes.Nodes) / float64(max(r.linzRes.Ops, 1))

	m["go.alloc_b_per_op"] = float64(d.allocB-b.allocB) / ops
	m["go.gc_cycles"] = float64(d.gcs - b.gcs)
	if cpu := d.allCPU - b.allCPU; cpu > 0 {
		m["go.gc_cpu_frac"] = (d.gcCPU - b.gcCPU) / cpu
	}
	m["go.goroutines"] = float64(d.goroutines)

	m["check.failed_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	m["check.get_samples"] = float64(res.getLat.N)
	m["check.put_samples"] = float64(res.putLat.N)
	m["run.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	// Model error against the paper: only jakiro-fetch has a reference
	// (Fig. 10: 5.5 MOPS at 35 threads, 2.005 round trips per call).
	if r.spec.name == "jakiro-fetch" {
		m["model.validated"] = 1
		m["model.mops_err_frac"] = res.virt.MOPS/paperMOPS - 1
		m["model.rtt_err_frac"] = (1+m["core.fetch_reads_per_call"])/paperRTT - 1
	}
}

// Fig. 10 of the paper and its round-trip count (EXPERIMENTS.md).
const (
	paperMOPS = 5.5
	paperRTT  = 2.005
)
