// Package sim is a deterministic discrete-event simulation kernel.
//
// The out-of-core SpGEMM framework reproduces a CUDA system whose
// performance story is entirely about *scheduling*: which kernel may
// overlap which transfer, which operations serialize the device, and in
// what order chunks are processed. This kernel provides the virtual
// time base for that model: processes are goroutines that run real Go
// code and advance a shared virtual clock by sleeping, waiting on
// signals, and queueing on FIFO resources.
//
// Exactly one process runs at a time (control is handed between the
// kernel and processes over unbuffered channels), so process code may
// touch shared state without locks, and a simulation is a deterministic
// function of its inputs: ties in wake-up time are broken by scheduling
// sequence number.
package sim

import (
	"container/heap"
	"fmt"
	"strings"
)

// Time is a point in virtual time, in nanoseconds from simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Seconds converts a floating-point number of seconds to a Duration,
// rounding to the nearest nanosecond.
func Seconds(s float64) Duration {
	return Duration(s*1e9 + 0.5)
}

// SecondsOf converts a Duration to floating-point seconds.
func SecondsOf(d Duration) float64 { return float64(d) / 1e9 }

// SecondsAt converts a Time to floating-point seconds.
func SecondsAt(t Time) float64 { return float64(t) / 1e9 }

// Env is a simulation environment: a virtual clock plus the set of
// processes and pending events.
type Env struct {
	now   Time
	seq   uint64
	q     timerHeap
	kern  chan struct{} // process -> kernel handoff
	live  int           // spawned but unfinished processes
	procs []*Proc       // all spawned processes, for diagnostics
	cur   *Proc

	// Timeline is the span trace recorded via Proc.Span; the gpusim
	// package uses it to reconstruct figures such as the paper's Fig 4
	// (time spent in data transfer vs. total).
	Timeline []Span
}

// Span is one traced interval of simulated work.
type Span struct {
	Start, End Time
	// Lane names the resource or actor ("d2h", "kernel", "cpu", ...).
	Lane string
	// Label describes the work ("numeric chunk 3", ...).
	Label string
}

// NewEnv creates an empty simulation.
func NewEnv() *Env {
	return &Env{kern: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Proc is a simulated process. Its methods must only be called from the
// process's own goroutine (the function passed to Spawn).
type Proc struct {
	env    *Env
	name   string
	resume chan struct{}
	// parked marks a process waiting on a Signal or Resource rather
	// than a timer; used for deadlock diagnostics.
	parked string
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

type timerItem struct {
	at   Time
	seq  uint64
	proc *Proc
}

type timerHeap []timerItem

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)      { *h = append(*h, x.(timerItem)) }
func (h *timerHeap) Pop() any        { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (e *Env) push(at Time, p *Proc) { heap.Push(&e.q, timerItem{at, e.next(), p}); p.parked = "" }
func (e *Env) next() uint64          { e.seq++; return e.seq }

// Spawn registers a new process that will start at the current virtual
// time once Run (or the current process) yields control.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, resume: make(chan struct{})}
	e.live++
	go func() {
		<-p.resume // wait for first scheduling
		fn(p)
		e.live--
		e.kern <- struct{}{} // hand control back; this goroutine ends
	}()
	e.procs = append(e.procs, p)
	e.push(e.now, p)
	return p
}

// Run executes the simulation until no events remain. It returns an
// error if processes remain parked with no pending events (deadlock).
func (e *Env) Run() error {
	for e.q.Len() > 0 {
		it := heap.Pop(&e.q).(timerItem)
		if it.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = it.at
		e.cur = it.proc
		it.proc.resume <- struct{}{}
		<-e.kern
	}
	e.cur = nil
	if e.live > 0 {
		// Name the stuck processes: a deadlock report that only counts
		// them sends the reader straight back here with a debugger.
		var stuck []string
		for _, p := range e.procs {
			if p.parked != "" {
				stuck = append(stuck, fmt.Sprintf("%s (%s)", p.name, p.parked))
			}
		}
		return fmt.Errorf("sim: deadlock: %d process(es) still parked: %s",
			e.live, strings.Join(stuck, "; "))
	}
	return nil
}

// yield hands control back to the kernel and waits to be resumed.
func (p *Proc) yield() {
	p.env.kern <- struct{}{}
	<-p.resume
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %d", d))
	}
	p.env.push(p.env.now+Time(d), p)
	p.yield()
}

// Span sleeps for d and records the interval on the timeline under the
// given lane and label.
func (p *Proc) Span(lane, label string, d Duration) {
	start := p.env.now
	p.Sleep(d)
	p.env.Timeline = append(p.env.Timeline, Span{Start: start, End: p.env.now, Lane: lane, Label: label})
}

// park suspends the process without scheduling a wake-up; something
// else (a Signal fire or Resource release) must push it back.
func (p *Proc) park(why string) {
	p.parked = why
	p.yield()
}

// Signal is a one-shot broadcast event in virtual time. The zero value
// is ready to use.
type Signal struct {
	fired   bool
	waiters []*Proc
}

// Fire marks the signal fired and wakes all waiters at the current
// virtual time. Firing twice is a no-op. Must be called from process
// context.
func (s *Signal) Fire(p *Proc) {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		p.env.push(p.env.now, w)
	}
	s.waiters = nil
}

// Await blocks the process until the signal fires. If the signal has
// already fired it returns immediately without advancing time.
func (p *Proc) Await(s *Signal) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park("await signal")
}

// AwaitAll waits for every signal in order.
func (p *Proc) AwaitAll(sigs ...*Signal) {
	for _, s := range sigs {
		p.Await(s)
	}
}

// Resource is a FIFO resource with integer capacity (capacity 1 gives a
// mutex; the GPU's per-direction DMA engines are capacity-1 resources).
type Resource struct {
	name     string
	capacity int
	inUse    int
	queue    []*Proc
	// Busy accumulates the total virtual time this resource spent with
	// at least one unit in use, for utilization accounting.
	Busy      Duration
	busySince Time
}

// NewResource creates a FIFO resource.
func NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Acquire takes one unit of the resource, queueing FIFO if none is
// available. It does not advance time when a unit is free.
func (p *Proc) Acquire(r *Resource) {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.grant(p)
		return
	}
	r.queue = append(r.queue, p)
	p.park("acquire " + r.name)
}

func (r *Resource) grant(p *Proc) {
	if r.inUse == 0 {
		r.busySince = p.env.now
	}
	r.inUse++
}

// Release returns one unit and hands it to the first waiter, if any.
func (p *Proc) Release(r *Resource) {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.inUse--
	if r.inUse == 0 {
		r.Busy += Duration(p.env.now - r.busySince)
	}
	if len(r.queue) > 0 {
		w := r.queue[0]
		r.queue = r.queue[1:]
		r.grant(w) // transfer ownership before the waiter resumes
		p.env.push(p.env.now, w)
	}
}

// Use acquires the resource, holds it for d (recording a span), and
// releases it. This is the common shape of a kernel launch or DMA
// transfer.
func (p *Proc) Use(r *Resource, label string, d Duration) {
	p.Acquire(r)
	p.Span(r.name, label, d)
	p.Release(r)
}

// LaneBusy sums the traced span time for one lane of the timeline.
func (e *Env) LaneBusy(lane string) Duration {
	var total Duration
	for _, s := range e.Timeline {
		if s.Lane == lane {
			total += Duration(s.End - s.Start)
		}
	}
	return total
}
