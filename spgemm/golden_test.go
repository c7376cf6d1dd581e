package spgemm

import (
	"reflect"
	"testing"
)

// TestGoldenPaperReproduction pins the simulated figures of the paper's
// out-of-core engines on one input: RMAT(10, ef 24)² on a 4 MiB device
// (the matrix of bench's lib_hybrid_ooc at seed 1, a 12-chunk grid).
// Every simulated quantity is a function of exact row counts, so a
// change to how the symbolic structure is *computed* must not move one
// bit of it; the values were recorded at the commit before the shared
// symbolic row kernel landed. A change that means to move them (a cost
// model recalibration, a different split rule) re-records the table and
// says so. (The hybrid and multigpu rows are one driver and one
// Counters() since the two were merged: each row gained the keys only
// the other had, no recorded pair changed.)
func TestGoldenPaperReproduction(t *testing.T) {
	a := RMAT(10, 24, 0.57, 0.19, 0.19, 1_000_004)
	dev := V100WithMemory(4 << 20)
	const fp, fpValues = 13433614415313357678, 5678739869066860981
	for _, want := range []struct {
		engine   string
		seconds  float64
		counters map[string]int64
	}{
		{"gpu", 0.001623965, map[string]int64{"bytes_d2h": 4502736, "bytes_h2d": 435088, "chunks": 12, "flops": 2793248, "mallocs": 1, "mem_peak_bytes": 4194304, "nnz_c": 367028, "recovery_abandoned": 0, "recovery_retries": 0}},
		{"gpu-sync", 0.001894343, map[string]int64{"bytes_d2h": 4502736, "bytes_h2d": 435088, "chunks": 12, "flops": 2793248, "mallocs": 1, "mem_peak_bytes": 4194304, "nnz_c": 367028, "recovery_abandoned": 0, "recovery_retries": 0}},
		{"hybrid", 0.001143171, map[string]int64{"bytes_d2h": 2330128, "bytes_h2d": 392144, "chunks": 12, "cpu_chunks": 8, "cpu_flops": 881942, "flops": 2793248, "gpu_chunks": 4, "gpu_flops": 1911306, "gpus": 1, "mallocs": 1, "mem_peak_bytes": 4194304, "nnz_c": 367028, "recovery_abandoned": 0, "recovery_devices_lost": 0, "recovery_failovers": 0, "recovery_fallbacks": 0, "recovery_retries": 0}},
		{"multigpu", 0.001143171, map[string]int64{"bytes_d2h": 2330128, "bytes_h2d": 392144, "chunks": 12, "cpu_chunks": 8, "cpu_flops": 881942, "flops": 2793248, "gpu_chunks": 4, "gpu_flops": 1911306, "gpus": 1, "mallocs": 1, "mem_peak_bytes": 4194304, "nnz_c": 367028, "recovery_abandoned": 0, "recovery_devices_lost": 0, "recovery_failovers": 0, "recovery_fallbacks": 0, "recovery_retries": 0}},
	} {
		eng, err := ByName(want.engine)
		if err != nil {
			t.Fatal(err)
		}
		c, rep, err := eng.Run(a, a, &RunOptions{Threads: 1, Device: &dev, UseCPU: true})
		if err != nil {
			t.Fatalf("%s: %v", want.engine, err)
		}
		if Fingerprint(c) != fp || FingerprintValues(c) != fpValues {
			t.Errorf("%s: product fingerprints (%d, %d) moved", want.engine, Fingerprint(c), FingerprintValues(c))
		}
		if rep.Seconds() != want.seconds {
			t.Errorf("%s: simulated seconds %v, recorded %v", want.engine, rep.Seconds(), want.seconds)
		}
		if got := rep.Counters(); !reflect.DeepEqual(got, want.counters) {
			t.Errorf("%s: counters %v, recorded %v", want.engine, got, want.counters)
		}
		if hs, ok := rep.(HybridStats); ok && hs.GFLOPS != 2.4434209755145995 {
			t.Errorf("hybrid: simulated GFLOPS %v, recorded 2.4434209755145995", hs.GFLOPS)
		}
	}
}
