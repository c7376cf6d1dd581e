//go:build unix

package spgemm

import (
	"syscall"
	"testing"
	"time"
)

// BenchmarkEngine is the lib_hybrid_ooc operation in process, through
// the registry as the benchmark runs it, for each out-of-core engine:
// RMAT(10, 24)² on a 4 MiB device with Threads: 1, planner, partition,
// simulation, host arithmetic and assembly included. Beside ns/op it
// reports the process's CPU time per operation (user plus system, from
// getrusage) and cores, that CPU time over the wall time: what the run's
// host lanes overlap.
//
//	go test -run '^$' -bench Engine ./spgemm
func BenchmarkEngine(b *testing.B) {
	a := RMAT(10, 24, 0.57, 0.19, 0.19, 5)
	dev := V100WithMemory(4 << 20)
	opts := &RunOptions{Threads: 1, Device: &dev}
	for _, name := range []string{"gpu", "hybrid", "multigpu"} {
		b.Run(name, func(b *testing.B) {
			e, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			cpu0, wall0 := cpuTime(b), time.Now()
			for range b.N {
				if _, _, err := e.Run(a, a, opts); err != nil {
					b.Fatal(err)
				}
			}
			cpu, wall := cpuTime(b)-cpu0, time.Since(wall0)
			b.ReportMetric(float64(cpu.Microseconds())/1e3/float64(b.N), "cpu-ms/op")
			b.ReportMetric(cpu.Seconds()/wall.Seconds(), "cores")
		})
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
