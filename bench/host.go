package main

import (
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// counterWireBytes is the benchmark's own counter beside the server's
// in serve_payload_cold's snapshot.
const counterWireBytes = "bench_wire_bytes"

// wireCounter sums the request and response body bytes a client moved.
type wireCounter struct{ bytes atomic.Int64 }

// countingTransport counts body bytes on their way through an
// http.RoundTripper.
type countingTransport struct {
	inner http.RoundTripper
	wire  *wireCounter
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.wire.bytes.Add(req.ContentLength)
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, wire: t.wire}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	wire *wireCounter
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.wire.bytes.Add(int64(n))
	return n, err
}

// hostInfo is recorded in every result so a reader can spot a slow or
// noisy box before trusting a comparison.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// SpinNsPerIter is a fixed integer loop timed at the start and the
	// end of the invocation.
	SpinNsPerIterStart float64 `json:"spin_ns_per_iter_start"`
	SpinNsPerIterEnd   float64 `json:"spin_ns_per_iter_end"`
	// StreamGBPerS is the triad bandwidth; measured by the traced run
	// only (faulting in its arrays takes seconds), zero otherwise.
	StreamGBPerS    float64 `json:"stream_gb_per_s,omitempty"`
	StreamArrayMiB  int     `json:"stream_array_mib,omitempty"`
	AssumedLLCMiB   int     `json:"assumed_llc_mib,omitempty"`
	SpinDriftShare  float64 `json:"spin_drift_share"`
	SpinDriftWarned bool    `json:"spin_drift_warned"`
}

func newHostInfo() hostInfo {
	return hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		SpinNsPerIterStart: spinNsPerIter(),
	}
}

// spinSink keeps the calibration loop's result alive.
var spinSink uint64

// spinNsPerIter times a fixed dependent integer loop (no memory
// traffic) and returns the best of five passes: a number that should
// be the same on every run of one machine, so drift in it is drift in
// the host, not in the program under test.
func spinNsPerIter() float64 {
	const iters = 20_000_000
	best := time.Duration(1 << 62)
	for pass := 0; pass < 5; pass++ {
		x := uint64(pass) + 1
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		spinSink += x
	}
	return float64(best) / iters
}

const (
	// streamArrayMiB is each triad array's size. The box this was
	// written on is a 2-vCPU VM that reports its host's whole 260 MiB L3
	// and takes ~8 s to fault in a GiB, so arrays of 4x that LLC (24 s
	// of page faults per run) are out of reach: three 96 MiB arrays keep
	// the working set (288 MiB) above the reported LLC and the VM's
	// actual share of it far below.
	streamArrayMiB = 96
	assumedLLCMiB  = 260
)

// streamTriadGBPerS measures a[i] = b[i] + s*c[i] over three arrays of
// streamArrayMiB each and returns the best of three passes in GB/s,
// counting 24 bytes per element (two reads, one write; write-allocate
// traffic is not counted, as in STREAM).
func streamTriadGBPerS() float64 {
	n := streamArrayMiB << 20 / 8
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := time.Duration(1 << 62)
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	spinSink += uint64(a[n/2])
	a, b, c = nil, nil, nil
	// Hand the arrays back before anything measures the heap.
	debug.FreeOSMemory()
	return float64(n) * 24 / best.Seconds() / 1e9
}

// finish takes the end-of-run spin calibration and flags drift.
func (h *hostInfo) finish() {
	h.SpinNsPerIterEnd = spinNsPerIter()
	h.SpinDriftShare = (h.SpinNsPerIterEnd - h.SpinNsPerIterStart) / h.SpinNsPerIterStart
	h.SpinDriftWarned = h.SpinDriftShare > 0.10 || h.SpinDriftShare < -0.10
}
