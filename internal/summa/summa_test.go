package summa

import (
	"testing"

	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/matgen"
)

func TestRunMatchesSequential(t *testing.T) {
	mats := []*csr.Matrix{
		matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 91),
		matgen.Band(700, 4, 92),
		matgen.ER(300, 300, 0.04, 93),
	}
	for mi, a := range mats {
		want, err := cpuspgemm.Sequential(a, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []int{1, 2, 3, 4} {
			got, st, err := Run(a, a, Config{Cluster: Cluster{Q: q}})
			if err != nil {
				t.Fatalf("matrix %d q=%d: %v", mi, q, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("matrix %d q=%d: invalid: %v", mi, q, err)
			}
			if !csr.Equal(got, want, 1e-9) {
				t.Fatalf("matrix %d q=%d: %s", mi, q, csr.Diff(got, want, 1e-9))
			}
			if st.Nodes != q*q || st.TotalSec <= 0 {
				t.Fatalf("matrix %d q=%d: bad stats %+v", mi, q, st)
			}
		}
	}
}

func TestRectangularSUMMA(t *testing.T) {
	a := matgen.ER(120, 90, 0.08, 94)
	b := matgen.ER(90, 150, 0.08, 95)
	want, err := cpuspgemm.Sequential(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Run(a, b, Config{Cluster: Cluster{Q: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !csr.Equal(got, want, 1e-9) {
		t.Fatalf("rect: %s", csr.Diff(got, want, 1e-9))
	}
}

func TestSingleNodeHasNoComm(t *testing.T) {
	a := matgen.Band(300, 3, 96)
	_, st, err := Run(a, a, Config{Cluster: Cluster{Q: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.CommSec != 0 {
		t.Fatalf("single node communicated %.6fs", st.CommSec)
	}
	if st.CompSec <= 0 {
		t.Fatal("no compute recorded")
	}
}

func TestStrongScalingComputeShrinks(t *testing.T) {
	a := matgen.RMAT(11, 8, 0.57, 0.19, 0.19, 97)
	_, one, err := Run(a, a, Config{Cluster: Cluster{Q: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, four, err := Run(a, a, Config{Cluster: Cluster{Q: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Per-node compute must shrink with the grid; the total may not
	// (communication), but the critical-path compute should.
	if four.CompSec >= one.CompSec {
		t.Fatalf("per-node compute did not shrink: %.6f vs %.6f", four.CompSec, one.CompSec)
	}
	if four.CommSec == 0 {
		t.Fatal("distributed run communicated nothing")
	}
}

func TestSlowNetworkDominates(t *testing.T) {
	a := matgen.RMAT(10, 8, 0.57, 0.19, 0.19, 98)
	_, fast, err := Run(a, a, Config{Cluster: Cluster{Q: 2, NetBandwidth: 100e9}})
	if err != nil {
		t.Fatal(err)
	}
	_, slow, err := Run(a, a, Config{Cluster: Cluster{Q: 2, NetBandwidth: 0.1e9}})
	if err != nil {
		t.Fatal(err)
	}
	if slow.TotalSec <= fast.TotalSec {
		t.Fatalf("slow network not slower: %.6f vs %.6f", slow.TotalSec, fast.TotalSec)
	}
	if slow.CommSec <= slow.CompSec {
		t.Fatalf("0.1 GB/s network should be comm-bound: comm %.6f comp %.6f", slow.CommSec, slow.CompSec)
	}
}

func TestErrors(t *testing.T) {
	if _, _, err := Run(csr.New(3, 4), csr.New(5, 5), Config{}); err == nil {
		t.Fatal("expected dimension mismatch")
	}
	if _, _, err := Run(csr.New(2, 2), csr.New(2, 2), Config{Cluster: Cluster{Q: 5}}); err == nil {
		t.Fatal("expected too-fine grid error")
	}
}

func TestPipelinedMatchesPlain(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 99)
	want, err := cpuspgemm.Sequential(a, a)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := Run(a, a, Config{Cluster: Cluster{Q: 3, Pipelined: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !csr.Equal(got, want, 1e-9) {
		t.Fatalf("pipelined: %s", csr.Diff(got, want, 1e-9))
	}
	if st.TotalSec <= 0 {
		t.Fatalf("bad stats %+v", st)
	}
}

func TestPipelinedFixesBandScaling(t *testing.T) {
	// Reference [33]'s motivation: under plain SUMMA a band matrix's
	// work concentrates in one barriered stage per node and does not
	// scale; the pipelined variant (no barrier, fetches ahead) does.
	a := matgen.Band(4000, 6, 100)
	_, plain, err := Run(a, a, Config{Cluster: Cluster{Q: 4}})
	if err != nil {
		t.Fatal(err)
	}
	_, piped, err := Run(a, a, Config{Cluster: Cluster{Q: 4, Pipelined: true}})
	if err != nil {
		t.Fatal(err)
	}
	if piped.TotalSec >= plain.TotalSec {
		t.Fatalf("pipelined (%.4fs) not faster than plain (%.4fs) on a band matrix",
			piped.TotalSec, plain.TotalSec)
	}
	// And it must also be a genuine speedup over one node.
	_, one, err := Run(a, a, Config{Cluster: Cluster{Q: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if one.TotalSec/piped.TotalSec < 1.5 {
		t.Fatalf("pipelined 16-node speedup only %.2fx over one node", one.TotalSec/piped.TotalSec)
	}
}
