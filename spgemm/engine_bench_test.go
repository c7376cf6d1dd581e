//go:build unix

package spgemm

import (
	"syscall"
	"testing"
	"time"
)

// BenchmarkEngine runs two benchmark operations in process, through the
// registry as the benchmark runs them, validation included. For each
// out-of-core engine (gpu, hybrid, multigpu) it is the lib_hybrid_ooc
// operation: RMAT(10, 24)² on a 4 MiB device with Threads: 1, planner,
// partition, simulation, host arithmetic and assembly included. For cpu
// it is the lib_cold_ladder operation: the five cold rungs (rmat, er,
// tallskinny, band_wide, stencil) with Threads: 1, on seeds of their own.
// Beside ns/op it reports the process's CPU time per operation (user
// plus system, from getrusage) and cores, that CPU time over the wall
// time: what the run's host lanes overlap.
//
//	go test -run '^$' -bench Engine ./spgemm
func BenchmarkEngine(b *testing.B) {
	a := RMAT(10, 24, 0.57, 0.19, 0.19, 5)
	dev := V100WithMemory(4 << 20)
	ooc := [][2]*Matrix{{a, a}}
	for _, name := range []string{"gpu", "hybrid", "multigpu"} {
		b.Run(name, func(b *testing.B) {
			benchEngine(b, name, ooc, &RunOptions{Threads: 1, Device: &dev})
		})
	}
	b.Run("cpu", func(b *testing.B) {
		benchEngine(b, "cpu", coldLadder(b), &RunOptions{Threads: 1})
	})
}

// coldLadder is lib_cold_ladder's five operand pairs (bench/workloads.go).
func coldLadder(b *testing.B) [][2]*Matrix {
	const width = 1 << 14
	rmat := RMAT(11, 8, 0.57, 0.19, 0.19, 901)
	er := ER(width, width, 6.0/width, 902)
	erTop, err := er.ExtractRows(0, 1<<11)
	if err != nil {
		b.Fatal(err)
	}
	band := Band(17<<12, 8, 905)
	bandTop, err := band.ExtractRows(0, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	stencil := Stencil2D(128, 128)
	return [][2]*Matrix{
		{rmat, rmat},
		{erTop, er},
		{ER(1<<11, 1<<9, 6.0/(1<<9), 903), ER(1<<9, width, 6.0/width, 904)},
		{bandTop, band},
		{stencil, stencil},
	}
}

// benchEngine times one operation, every pair multiplied once by the
// named engine, and reports cpu-ms/op and cores beside ns/op.
func benchEngine(b *testing.B, name string, pairs [][2]*Matrix, opts *RunOptions) {
	e, err := ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	cpu0, wall0 := cpuTime(b), time.Now()
	for range b.N {
		for _, p := range pairs {
			if _, _, err := e.Run(p[0], p[1], opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	cpu, wall := cpuTime(b)-cpu0, time.Since(wall0)
	b.ReportMetric(float64(cpu.Microseconds())/1e3/float64(b.N), "cpu-ms/op")
	b.ReportMetric(cpu.Seconds()/wall.Seconds(), "cores")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
