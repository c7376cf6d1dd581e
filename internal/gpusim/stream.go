package gpusim

import "repro/internal/sim"

// Stream is a CUDA-style in-order operation queue. Operations enqueued
// on one stream execute in FIFO order; operations on different streams
// may overlap, subject to the device's engine and malloc constraints.
//
// Enqueue may be called from any simulation process; it returns a
// completion signal immediately. A dedicated worker process drains the
// queue and exits when the queue is empty, so streams need no explicit
// shutdown.
type Stream struct {
	dev     *Device
	name    string
	queue   []streamOp
	running bool
}

type streamOp struct {
	label string
	fn    func(p *sim.Proc)
	done  *sim.Signal
}

// NewStream creates a stream on the device.
func (d *Device) NewStream(name string) *Stream {
	return &Stream{dev: d, name: name}
}

// Enqueue appends an operation and returns its completion signal. The
// operation function runs in the stream's worker process and may use
// any Device method.
func (s *Stream) Enqueue(label string, fn func(p *sim.Proc)) *sim.Signal {
	op := streamOp{label: label, fn: fn, done: &sim.Signal{}}
	s.queue = append(s.queue, op)
	if !s.running {
		s.running = true
		s.dev.Env.Spawn("stream:"+s.name, s.drain)
	}
	return op.done
}

// drain executes queued operations in order until the queue is empty.
func (s *Stream) drain(p *sim.Proc) {
	for len(s.queue) > 0 {
		op := s.queue[0]
		s.queue = s.queue[1:]
		op.fn(p)
		op.done.Fire(p)
	}
	s.running = false
}
