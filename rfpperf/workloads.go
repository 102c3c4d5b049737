package main

import (
	"errors"
	"fmt"

	"rfp/internal/core"
	"rfp/internal/dist"
	"rfp/internal/fabric"
	"rfp/internal/faults"
	"rfp/internal/hw"
	"rfp/internal/kvstore/jakiro"
	"rfp/internal/kvstore/kv"
	"rfp/internal/linz"
	"rfp/internal/replica"
	"rfp/internal/shard"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// spec is one named workload. README.md gives the reason for each.
type spec struct {
	name    string
	why     string
	warmup  sim.Duration
	window  sim.Duration
	threads int // closed-loop client threads
	// inputs is the number of distinct input sets a run draws from its
	// seed; the run's virtual figures pool them.
	inputs int
	// perThread is the length of each thread's generated op stream: the
	// closed loop's need at the current speed with 4x headroom, so a
	// faster program still finds its inputs. Running out is an error.
	perThread int
	load      workload.Config
	// build assembles the cluster, preloads, connects and starts the
	// servers, then spawns one load proc per client thread. It returns
	// before the first simulated op.
	build func(r *rep) error
	// selfCheck asserts that the run exercised what the workload is named
	// for, from the rep's per-layer figures.
	selfCheck func(m map[string]float64) error
}

const (
	jakiroKeys  = 100_000
	replicaKeys = 4096
	// extraProcNs puts jakiro-reply's server process time past the ~7 µs
	// fetch/reply crossover of the paper's Fig. 14.
	extraProcNs = 10_000
	// shardDepth and shardWindow are ext-scaleout's pipelined client: ring
	// depth 8, and 8 ops in flight per server (32 at 4 servers).
	shardServers = 4
	shardDepth   = 8
	shardWindow  = shardDepth * shardServers
)

var specs = []*spec{
	{
		name:      "jakiro-fetch",
		inputs:    1,
		why:       "Fig. 10 peak: 35 sync clients on the in-bound-bound RFP fetch path; proc handoff and prefill bind host time",
		warmup:    300 * sim.Microsecond,
		window:    20 * sim.Millisecond,
		threads:   35,
		perThread: 13000,
		load:      workload.Config{Keys: jakiroKeys, GetFraction: 0.95, ValueSize: dist.Fixed(32)},
		build:     buildJakiro(jakiro.Config{Threads: 6, MaxValue: 32}),
		selfCheck: func(m map[string]float64) error {
			if m["core.reply_frac"] > 0.01 {
				return fmt.Errorf("reply_frac %.4f, want ≈ 0 on the fetch path", m["core.reply_frac"])
			}
			if v := m["rnic.srv_in_ops_per_op"]; v < 1.95 || v > 2.1 {
				return fmt.Errorf("srv_in_ops_per_op %.4f, want ≈ 2", v)
			}
			return nil
		},
	},
	{
		name:      "jakiro-reply",
		inputs:    16,
		why:       "50% PUT, Zipf .99, 32-1024 B values, 10 us process time: server-CPU-bound reply path over the out-bound engine",
		warmup:    500 * sim.Microsecond,
		window:    10 * sim.Millisecond,
		threads:   35,
		perThread: 1000,
		load:      workload.Config{Keys: jakiroKeys, GetFraction: 0.5, ZipfTheta: 0.99, ValueSize: dist.Uniform{Lo: 32, Hi: 1024}},
		build:     buildJakiro(jakiro.Config{Threads: 6, MaxValue: maxValue, ExtraProcNs: extraProcNs}),
		selfCheck: func(m map[string]float64) error {
			if m["core.reply_frac"] <= 0.5 {
				return fmt.Errorf("reply_frac %.4f, want most calls delivered by reply", m["core.reply_frac"])
			}
			if m["core.second_reads_per_call"] <= 0 {
				return errors.New("no second reads while fetching")
			}
			return nil
		},
	},
	{
		name:      "shard-pipeline",
		inputs:    1,
		why:       "4 Jakiro servers, 14 threads pipelined 32 deep through shard/core.Group: async Post/Poll, event-heavy, few procs",
		warmup:    300 * sim.Microsecond,
		window:    2500 * sim.Microsecond,
		threads:   14,
		perThread: 16000,
		load:      workload.Config{Keys: jakiroKeys, GetFraction: 0.95, ValueSize: dist.Fixed(32)},
		build:     buildShard,
		selfCheck: func(m map[string]float64) error {
			if m["shard.inflight_per_ring"] <= 1 {
				return fmt.Errorf("mean ring occupancy %.3f, want > 1", m["shard.inflight_per_ring"])
			}
			return nil
		},
	},
	{
		name:      "replica-quorum",
		inputs:    8,
		why:       "3-node quorum group, 16 sync clients, follower reads, quorum PUTs, no faults; history checked by linz",
		warmup:    300 * sim.Microsecond,
		window:    10 * sim.Millisecond,
		threads:   16,
		perThread: 4000,
		load:      workload.Config{Keys: replicaKeys, GetFraction: 0.9, ZipfTheta: 0.99, ValueSize: dist.Fixed(32)},
		build:     buildReplica(false),
		selfCheck: func(m map[string]float64) error {
			if m["replica.local_read_frac"] < 0.5 {
				return fmt.Errorf("local_read_frac %.4f, want most GETs served by followers", m["replica.local_read_frac"])
			}
			if m["replica.promotions"] != 0 {
				return fmt.Errorf("%v promotions in a run without faults", m["replica.promotions"])
			}
			return nil
		},
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// inputSeed derives the seed of a run's k-th input set; set 0 uses the
// run's seed itself.
func inputSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// generate draws the run's input sets: every thread's op stream, for each
// set. Thread i's stream in set k depends only on (inputSeed(seed, k), i).
func (s *spec) generate(seed int64) [][][]workload.Op {
	sets := make([][][]workload.Op, s.inputs)
	for k := range sets {
		in := make([][]workload.Op, s.threads)
		for i := range in {
			g := workload.NewGenerator(s.load, inputSeed(seed, k)*1000+int64(i))
			ops := make([]workload.Op, s.perThread)
			for j := range ops {
				ops[j] = g.Next()
			}
			in[i] = ops
		}
		sets[k] = in
	}
	return sets
}

// profile is the modelled hardware: the paper's ConnectX-3 cluster.
var profile = hw.ConnectX3()

// buckets sizes a store for keys pairs at ≤1/8 of its slots, so preloading
// never evicts (an eviction would surface as a miss).
func buckets(keys, partitions int) int {
	return keys / partitions
}

func buildJakiro(cfg jakiro.Config) func(r *rep) error {
	return func(r *rep) error {
		cfg := cfg
		cfg.BucketsPerPartition = buckets(jakiroKeys, cfg.Threads)
		var cl *fabric.Cluster
		r.phase("fabric.build", func() {
			cl = fabric.NewCluster(r.env, profile, 7)
		})
		r.servers = []*fabric.Machine{cl.Server}
		r.clientMachines = cl.Clients
		var srv *jakiro.Server
		r.phase("kvstore.preload", func() {
			srv = jakiro.NewServer(cl.Server, cfg)
			srv.Preload(workload.Preload(r.spec.load), 32)
			for i := 0; i < cfg.Threads; i++ {
				r.stores = append(r.stores, srv.Partition(i))
			}
		})
		clients := make([]*jakiro.Client, r.spec.threads)
		r.phase("kvstore.connect", func() {
			placements := cl.ClientThreads(r.spec.threads)
			for i, pl := range placements {
				clients[i] = srv.NewClient(pl.Machine)
				r.attachRecorder(clients[i])
			}
			srv.Start()
			for i, pl := range placements {
				c, t := clients[i], r.threads[i]
				pl.Machine.Spawn("load", r.syncLoop(t, func(p *sim.Proc, op workload.Op, _ int) failKind {
					return jakiroOp(p, c, op, t.buf)
				}))
			}
		})
		r.coreStats = func() core.ClientStats {
			var agg core.ClientStats
			for _, c := range clients {
				addStats(&agg, c.Stats())
			}
			return agg
		}
		return nil
	}
}

// jakiroOp runs one GET or PUT and checks a GET's value against its key.
// Every Jakiro value is FillValue(key, 0) at some length.
func jakiroOp(p *sim.Proc, c *jakiro.Client, op workload.Op, buf []byte) failKind {
	if op.Kind != workload.Get {
		v := buf[:op.ValueSize]
		workload.FillValue(v, op.Key, 0)
		if c.Put(p, op.Key, v) != nil {
			return failErr
		}
		return ok
	}
	n, found, err := c.Get(p, op.Key, buf)
	switch {
	case err != nil:
		return failErr
	case !found:
		return failMiss
	case n < 32 || !workload.CheckValue(buf[:n], op.Key, 0):
		return failBad
	}
	return ok
}

func buildShard(r *rep) error {
	cfg := jakiro.Config{
		Threads:             4,
		BucketsPerPartition: buckets(jakiroKeys, shardServers*4),
		MaxValue:            64,
		Params:              core.DefaultParams(),
	}
	cfg.Params.Depth = shardDepth
	var cl *fabric.Cluster
	r.phase("fabric.build", func() {
		cl = fabric.NewCluster(r.env, profile, 14)
		r.servers = []*fabric.Machine{cl.Server}
		for i := 1; i < shardServers; i++ {
			r.servers = append(r.servers, fabric.NewMachine(r.env, fmt.Sprintf("server%d", i), profile))
		}
	})
	r.clientMachines = cl.Clients
	servers := make([]*jakiro.Server, shardServers)
	r.phase("kvstore.preload", func() {
		for i, m := range r.servers {
			servers[i] = jakiro.NewServer(m, cfg)
			for t := 0; t < cfg.Threads; t++ {
				r.stores = append(r.stores, servers[i].Partition(t))
			}
		}
		// Each key lives on the server shard.For picks, in the partition
		// that server's clients route it to.
		kb := make([]byte, workload.KeySize)
		val := make([]byte, 32)
		for k := uint64(0); k < jakiroKeys; k++ {
			key := workload.EncodeKey(kb, k)
			workload.FillValue(val, k, 0)
			servers[shard.For(key, shardServers)].Partition(kv.PartitionFor(key, cfg.Threads)).Put(key, val)
		}
	})
	var clients []*shard.Client
	var err error
	r.phase("kvstore.connect", func() {
		placements := cl.ClientThreads(r.spec.threads)
		for _, pl := range placements {
			sc, e := shard.New(pl.Machine, servers, true)
			if e != nil {
				err = fmt.Errorf("shard.New: %w", e)
				return
			}
			r.attachRecorder(sc)
			clients = append(clients, sc)
		}
		for _, s := range servers {
			s.Start()
		}
		for i, pl := range placements {
			pl.Machine.Spawn("load", r.pipelineLoop(r.threads[i], clients[i]))
		}
	})
	if err != nil {
		return err
	}
	r.coreStats = func() core.ClientStats {
		var agg core.ClientStats
		for _, c := range clients {
			addStats(&agg, c.Stats())
		}
		return agg
	}
	r.rings = len(clients) * shardServers * cfg.Threads
	return nil
}

// pipelineLoop keeps shardWindow ops in flight over every server's rings
// and claims the oldest once the window is full or a ring is.
func (r *rep) pipelineLoop(t *thread, sc *shard.Client) func(*sim.Proc) {
	type pending struct {
		pd  shard.PendingOp
		idx int
	}
	return func(p *sim.Proc) {
		defer r.exit()
		var q []pending
		pollHead := func() {
			h := q[0]
			q = q[1:]
			clear(t.buf[:32])
			found, err := sc.PollOp(p, h.pd, t.buf)
			rec := &t.recs[h.idx]
			rec.end = int64(p.Now())
			rec.fail = classify(found, err, rec.get, t.buf[:32], t.ops[h.idx].Key)
		}
		for i, op := range t.ops {
			if r.stopped {
				break
			}
			t.recs = append(t.recs, opRec{start: int64(p.Now()), end: -1, get: op.Kind == workload.Get})
			for {
				pd, err := sc.PostOp(p, op)
				if errors.Is(err, core.ErrRingFull) {
					pollHead()
					continue
				}
				if err != nil {
					t.recs[i].end, t.recs[i].fail = int64(p.Now()), failErr
					break
				}
				q = append(q, pending{pd, i})
				t.posts++
				t.inflightSum += uint64(len(q))
				break
			}
			if len(q) >= shardWindow {
				pollHead()
			}
		}
		for len(q) > 0 {
			pollHead()
		}
		t.exhausted = !r.stopped
	}
}

// classify turns a pipelined op's outcome into a failure kind.
func classify(found bool, err error, get bool, val []byte, key uint64) failKind {
	switch {
	case err != nil:
		return failErr
	case !found:
		return failMiss
	case get && !workload.CheckValue(val, key, 0):
		return failBad
	}
	return ok
}

// crashFor is the length of the leader crash that buildReplica(true)
// places a third of the way into the measured window.
const crashFor = 160 * sim.Microsecond

// buildReplica assembles a leader and 2 followers. Without crash the
// clients use core's defaults: recovery off, the paper's lossless fabric.
// With crash, the leader crashes once for crashFor and the clients use the
// failover scenario's recovery settings. No workload crashes the leader:
// its history is not linearizable (README.md, "Known defect"), which
// TestFailoverDefect pins.
func buildReplica(crash bool) func(r *rep) error {
	return func(r *rep) error {
		var cl *fabric.Cluster
		r.phase("fabric.build", func() {
			cl = fabric.NewCluster(r.env, profile, 4)
			r.servers = []*fabric.Machine{cl.Server,
				fabric.NewMachine(r.env, "server1", profile),
				fabric.NewMachine(r.env, "server2", profile)}
		})
		r.clientMachines = cl.Clients
		var svc *replica.Service
		var err error
		r.phase("kvstore.preload", func() {
			svc, err = replica.NewService(r.servers, replica.Config{Buckets: buckets(replicaKeys, 1), MaxValue: 64})
			if err != nil {
				return
			}
			svc.Preload(replicaKeys, 32)
			for i := 0; i < svc.Nodes(); i++ {
				r.stores = append(r.stores, svc.Store(i))
			}
		})
		if err != nil {
			return fmt.Errorf("replica.NewService: %w", err)
		}
		r.svc = svc
		params := core.DefaultParams()
		if crash {
			crashAt := sim.Time(r.spec.warmup + r.spec.window/3)
			r.inj = faults.New(faults.Plan{Seed: r.seed, Crashes: []faults.Window{
				{Machine: cl.Server.Name(), Start: crashAt, End: crashAt.Add(crashFor)},
			}})
			faults.Install(r.env, r.inj, r.servers...)
			// A call into the crashed leader fails at its deadline, so the
			// client re-routes to the survivors well inside the failover.
			params.DeadlineNs = 150_000
			params.BackoffNs = 2_000
		}
		clients := make([]*replica.Client, r.spec.threads)
		r.phase("kvstore.connect", func() {
			placements := cl.ClientThreads(r.spec.threads)
			for i, pl := range placements {
				clients[i] = svc.NewClient(pl.Machine, params, true)
			}
			svc.Start()
			for i, pl := range placements {
				c, t := clients[i], r.threads[i]
				t.log = linz.NewClientLog(i)
				pl.Machine.Spawn("load", r.syncLoop(t, func(p *sim.Proc, op workload.Op, seq int) failKind {
					return replicaOp(p, c, t, op, seq)
				}))
			}
		})
		r.replicaClients = clients
		return nil
	}
}

// replicaOp runs one versioned GET or PUT and logs it for the
// linearizability check. PUT versions are unique per (thread, seq).
func replicaOp(p *sim.Proc, c *replica.Client, t *thread, op workload.Op, seq int) failKind {
	call := int64(p.Now())
	if op.Kind != workload.Get {
		version := uint32(t.id+1)<<20 | uint32(seq)
		v := t.buf[:32]
		workload.FillVersioned(v, op.Key, version)
		if c.Put(p, op.Key, v) != nil {
			t.log.FailedWrite(op.Key, version, call)
			return failErr
		}
		t.log.Write(op.Key, version, call, int64(p.Now()))
		return ok
	}
	n, found, err := c.Get(p, op.Key, t.buf)
	if err != nil {
		return failErr // a failed read constrains nothing; linz drops it
	}
	var version uint32
	good := true
	if found {
		version, good = workload.ParseVersioned(t.buf[:n], op.Key)
	}
	t.log.Read(op.Key, version, found, call, int64(p.Now()))
	switch {
	case !found:
		return failMiss
	case !good:
		return failBad
	}
	return ok
}

// addStats sums one client's RFP transport counters into dst.
func addStats(dst *core.ClientStats, s core.ClientStats) {
	dst.Calls += s.Calls
	dst.FetchReads += s.FetchReads
	dst.SecondReads += s.SecondReads
	dst.ReplyDeliveries += s.ReplyDeliveries
	dst.Retries += s.Retries
	dst.SwitchToReply += s.SwitchToReply
	dst.SwitchToFetch += s.SwitchToFetch
	dst.IdleNs += s.IdleNs
	dst.SendNs += s.SendNs
	dst.FetchNs += s.FetchNs
	dst.ReplyWaitNs += s.ReplyWaitNs
	dst.FaultRetries += s.FaultRetries
	dst.Resends += s.Resends
	dst.Reconnects += s.Reconnects
	dst.Demotions += s.Demotions
	dst.Deadlines += s.Deadlines
}
