package sim

import "testing"

// BenchmarkSleepFastPath measures a lone process sleeping: nothing else is
// ever pending, so every Sleep takes the sleepFast path and advances the
// clock in place. No event is retired and the process never parks.
func BenchmarkSleepFastPath(b *testing.B) {
	e := NewEnv(1)
	defer e.Close()
	e.Go("spinner", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	e.Run(Time(int64(b.N) * 10))
}

// BenchmarkProcHandoff measures one process wakeup: n processes sleep
// staggered 1ns apart with period n, so every retired event wakes a
// different process than the last and costs one handoff.
func BenchmarkProcHandoff(b *testing.B) {
	const n = 4
	e := NewEnv(1)
	defer e.Close()
	for i := 0; i < n; i++ {
		e.Go("sleeper", func(p *Proc) {
			p.Sleep(Duration(i))
			for {
				p.Sleep(n)
			}
		})
	}
	e.Run(n) // every sleeper has started and parked once
	h0 := e.def.handoffs
	b.ResetTimer()
	e.Run(e.Now().Add(Duration(b.N)))
	b.ReportMetric(float64(e.def.handoffs-h0)/float64(b.N), "handoffs/op")
}

// BenchmarkResourceUse measures a contended resource handoff per
// operation.
func BenchmarkResourceUse(b *testing.B) {
	e := NewEnv(1)
	defer e.Close()
	r := NewResource(e, 1)
	for i := 0; i < 4; i++ {
		e.Go("user", func(p *Proc) {
			for {
				r.Use(p, 5)
			}
		})
	}
	b.ResetTimer()
	e.Run(Time(int64(b.N) * 5))
}

// BenchmarkQueuePingPong measures producer/consumer message passing.
func BenchmarkQueuePingPong(b *testing.B) {
	e := NewEnv(1)
	defer e.Close()
	q := NewQueue[int](e)
	e.Go("consumer", func(p *Proc) {
		for {
			_ = q.Get(p)
		}
	})
	e.Go("producer", func(p *Proc) {
		for {
			q.Put(1)
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	e.Run(Time(int64(b.N) * 10))
}
