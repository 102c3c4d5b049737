package sim

// Baton-passing tests: a parking or finishing process dispatches the lane's
// next events itself and hands the lane straight to the next process, so
// each wakeup costs one goroutine handoff. The tests pin the handoff counts
// of small schedules, the shutdown of processes parked mid-chain, and the
// forwarding of panics raised on process goroutines to the Run caller.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// A process whose own wakeup is the next live event keeps the lane: the fn
// event due before it runs inline on its goroutine and park returns with no
// handoff. The only handoffs are drain's first resume and the final yield.
func TestBatonParkResumesSelfWithoutSwitch(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var fnAt, wokeAt Time
	e.Go("a", func(p *Proc) {
		e.After(10, func() { fnAt = e.Now() })
		p.Sleep(20) // the fn at 10 blocks the fast path, so this parks
		wokeAt = p.Now()
	})
	e.Run(100)
	if fnAt != 10 || wokeAt != 20 {
		t.Fatalf("fn at %v, wakeup at %v; want 10, 20", fnAt, wokeAt)
	}
	if h := e.def.handoffs; h != 2 {
		t.Fatalf("handoffs = %d, want 2 (first resume + final yield)", h)
	}
}

// Two processes alternating hand the lane to each other directly: every
// wakeup is one handoff, with no round trip through the drain caller.
func TestBatonDirectHandoffAlternates(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var log []string
	mark := func(p *Proc) { log = append(log, fmt.Sprintf("%s@%d", p.Name(), p.Now())) }
	e.Go("a", func(p *Proc) {
		p.Sleep(10)
		mark(p)
		p.Sleep(10)
		mark(p)
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(15)
		mark(p)
		p.Sleep(10)
		mark(p)
	})
	e.Run(100)
	want := []string{"a@10", "b@15", "a@20", "b@25"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
	// drain->a, a->b, b->a, a->b, b->a, a finishes ->b, b finishes ->drain.
	if h := e.def.handoffs; h != 7 {
		t.Fatalf("handoffs = %d, want 7", h)
	}
}

// A process that returns passes the baton on exactly like a parking one.
func TestBatonHandoffFromFinishingProc(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var log []string
	e.Go("a", func(p *Proc) { log = append(log, "a") })
	e.Go("b", func(p *Proc) { log = append(log, "b") })
	e.Run(10)
	if !reflect.DeepEqual(log, []string{"a", "b"}) {
		t.Fatalf("order %v", log)
	}
	// drain->a, a finishes ->b, b finishes ->drain.
	if h := e.def.handoffs; h != 3 {
		t.Fatalf("handoffs = %d, want 3", h)
	}
	if len(e.def.procs) != 0 {
		t.Fatalf("%d procs still registered", len(e.def.procs))
	}
}

// Close unwinds processes left mid-chain: some with a wakeup still queued
// beyond the Run bound, some parked on a queue with nothing to wake them.
func TestBatonCloseWithProcsParkedMidChain(t *testing.T) {
	e := NewEnv(1)
	const n = 4
	qs := make([]*Queue[int], n)
	for i := range qs {
		qs[i] = NewQueue[int](e)
	}
	var unwound [n]bool
	hops := 0
	for i := 0; i < n; i++ {
		i := i
		e.Go(fmt.Sprintf("node%d", i), func(p *Proc) {
			defer func() { unwound[i] = true }()
			for {
				v := qs[i].Get(p)
				hops++
				p.Sleep(Duration(7 + i))
				qs[(i+1)%n].Put(v + 1)
			}
		})
	}
	qs[0].Put(0)
	e.Run(95) // stops mid-ring: one node sleeping past 95, the rest in Get
	if hops == 0 {
		t.Fatal("token never moved")
	}
	e.Close()
	for i, ok := range unwound {
		if !ok {
			t.Fatalf("node%d was not unwound by Close", i)
		}
	}
	if len(e.def.procs) != 0 {
		t.Fatalf("%d procs still registered after Close", len(e.def.procs))
	}
}

// An fn event that panics while a process holds the baton runs on that
// process's goroutine. The panic must surface from Run on the caller's
// goroutine, carrying the original value, the process name and the stack.
func TestBatonFnPanicForwardedToRunCaller(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	e.Go("holder", func(p *Proc) {
		e.After(5, func() { panic("boom") })
		p.Sleep(10)
		t.Error("holder resumed after the panic")
	})
	pp := runPanics(t, func() { e.Run(100) })
	if pp.Value != "boom" || pp.Proc != "holder" {
		t.Fatalf("panic = %q in %q, want boom in holder", pp.Value, pp.Proc)
	}
	if !bytes.Contains(pp.Stack, []byte("TestBatonFnPanicForwardedToRunCaller")) {
		t.Fatalf("stack does not show the panicking fn:\n%s", pp.Stack)
	}
	if len(e.def.procs) != 0 {
		t.Fatalf("panicked proc still registered")
	}
}

// A panic in process code is forwarded the same way, through RunAll too,
// and an error value stays reachable with errors.Is.
func TestBatonProcPanicForwardedThroughRunAll(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	errBoom := errors.New("boom")
	e.Go("other", func(p *Proc) { p.Sleep(1000) })
	e.Go("bad", func(p *Proc) {
		p.Sleep(3)
		panic(errBoom)
	})
	pp := runPanics(t, func() { e.RunAll() })
	if !errors.Is(pp, errBoom) || pp.Proc != "bad" {
		t.Fatalf("panic %v in %q, want errBoom in bad", pp.Value, pp.Proc)
	}
	// The environment stays usable for shutdown: Close unwinds "other".
}

func runPanics(t *testing.T, run func()) (pp *ProcPanic) {
	t.Helper()
	defer func() {
		r := recover()
		var ok bool
		if pp, ok = r.(*ProcPanic); !ok {
			t.Fatalf("recovered %#v, want *ProcPanic", r)
		}
	}()
	run()
	return nil
}

// Env.Go from an fn event that a parking process dispatched spawns the new
// process at the fn's instant, and it joins the baton chain like any other.
func TestBatonGoFromFnContext(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var log []string
	mark := func(p *Proc) { log = append(log, fmt.Sprintf("%s@%d", p.Name(), p.Now())) }
	e.Go("parent", func(p *Proc) {
		e.After(5, func() {
			e.Go("child", func(p *Proc) {
				mark(p)
				p.Sleep(10)
				mark(p)
			})
		})
		p.Sleep(12)
		mark(p)
	})
	e.Run(100)
	want := []string{"child@5", "parent@12", "child@15"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}
