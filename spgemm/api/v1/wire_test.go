package apiv1

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestWireFieldStability pins the v1 wire contract: the JSON names of
// every request/response type. A failure here means a wire-breaking
// change — additions are fine (add them to the want set), renames and
// removals need a new version package.
func TestWireFieldStability(t *testing.T) {
	cases := []struct {
		name string
		typ  any
		want []string
	}{
		{"MatrixSpec", MatrixSpec{}, []string{
			"kind", "scale", "edge_factor", "rows", "cols", "density", "n", "half", "block", "seed",
		}},
		{"MultiplyRequest", MultiplyRequest{}, []string{
			"engine", "a", "b", "a_handle", "b_handle", "store_c", "deadline_sec", "threads", "num_gpus",
		}},
		{"MultiplyResponse", MultiplyResponse{}, []string{
			"requested", "engine", "degraded", "rows", "cols", "nnz_c", "flops", "seconds", "gflops", "c_handle",
		}},
		{"MatrixRequest", MatrixRequest{}, []string{"spec", "handle", "values_seed", "data"}},
		{"MatrixData", MatrixData{}, []string{"rows", "cols", "row_offsets", "col_ids", "values"}},
		{"MatrixBatchRequest", MatrixBatchRequest{}, []string{"matrices"}},
		{"MatrixBatchResponse", MatrixBatchResponse{}, []string{"matrices"}},
		{"JoinRequest", JoinRequest{}, []string{"name", "url"}},
		{"JoinResponse", JoinResponse{}, []string{"name", "rejoined", "replicas", "heartbeat_sec"}},
		{"DrainRequest", DrainRequest{}, []string{"timeout_sec"}},
		{"DrainResponse", DrainResponse{}, []string{"counters"}},
		{"MatrixResponse", MatrixResponse{}, []string{
			"handle", "rows", "cols", "nnz", "bytes", "structure_fingerprint",
		}},
		{"ErrorResponse", ErrorResponse{}, []string{"code", "error", "retry_after_sec"}},
		{"Operand", Operand{}, []string{"handle", "node", "spec"}},
		{"BatchNode", BatchNode{}, []string{"id", "engine", "a", "b", "store"}},
		{"BatchRequest", BatchRequest{}, []string{"engine", "deadline_sec", "threads", "num_gpus", "nodes"}},
		{"NodeResult", NodeResult{}, []string{
			"id", "status", "engine", "degraded", "rows", "cols", "nnz_c", "flops",
			"seconds", "plan_cache_hit", "handle", "error",
		}},
		{"BatchResponse", BatchResponse{}, []string{
			"nodes", "completed", "failed", "skipped", "seconds", "estimated_flops",
			"plan_cache_hits", "plan_cache_misses", "plan_cache_hit_rate",
		}},
		{"ReadyResponse", ReadyResponse{}, []string{
			"status", "draining", "inflight_jobs", "inflight_flops", "breakers", "replicas",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := reflect.TypeOf(tc.typ)
			got := make([]string, 0, rt.NumField())
			for i := 0; i < rt.NumField(); i++ {
				tag := rt.Field(i).Tag.Get("json")
				name := strings.Split(tag, ",")[0]
				if name == "" || name == "-" {
					t.Fatalf("field %s has no json name", rt.Field(i).Name)
				}
				got = append(got, name)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("wire fields changed:\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

// TestErrorCodeStability pins the taxonomy constants — clients dispatch
// on these strings.
func TestErrorCodeStability(t *testing.T) {
	want := map[string]string{
		CodeBadRequest:       "bad_request",
		CodeMethodNotAllowed: "method_not_allowed",
		CodeUnknownHandle:    "unknown_handle",
		CodeOverloaded:       "overloaded",
		CodeQueueFull:        "queue_full",
		CodeDraining:         "draining",
		CodeJobPanic:         "job_panic",
		CodeDeadline:         "deadline",
		CodeOOM:              "oom",
		CodeDeviceLost:       "device_lost",
		CodeInvalidDAG:       "invalid_dag",
		CodeShapeMismatch:    "shape_mismatch",
		CodeUpstreamFailed:   "upstream_failed",
		CodeReplicaDown:      "replica_down",
	}
	for got, expect := range want {
		if got != expect {
			t.Errorf("code %q changed (want %q)", got, expect)
		}
	}
	if StatusOK != "ok" || StatusFailed != "failed" || StatusSkipped != "skipped" {
		t.Error("node status strings changed")
	}
	if ReadyStatusReady != "ready" || ReadyStatusDegraded != "degraded" || ReadyStatusDraining != "draining" {
		t.Error("readiness status strings changed")
	}
}

// TestOmitEmptyKeepsRequestsSmall asserts the minimal chain node
// marshals without optional noise — the compactness of batch requests
// is part of the API's appeal for iterative clients.
func TestOmitEmptyKeepsRequestsSmall(t *testing.T) {
	data, err := json.Marshal(BatchNode{ID: "s1", A: Operand{Handle: "h"}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), `{"id":"s1","a":{"handle":"h"}}`; got != want {
		t.Fatalf("minimal node = %s, want %s", got, want)
	}
}

// TestMatrixDataRoundTrip: a raw upload survives the JSON wire
// byte-identically — the content-addressed handles of the cluster's
// spill re-uploads depend on float64 values round-tripping exactly.
func TestMatrixDataRoundTrip(t *testing.T) {
	m, err := MatrixSpec{Kind: "er", Rows: 48, Cols: 48, Density: 0.1, Seed: 9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(MatrixDataFrom(m))
	if err != nil {
		t.Fatal(err)
	}
	var d MatrixData
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	got, err := d.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != m.Rows || got.Cols != m.Cols || got.Nnz() != m.Nnz() {
		t.Fatalf("shape changed: %dx%d nnz %d", got.Rows, got.Cols, got.Nnz())
	}
	for i := range m.Data {
		if m.Data[i] != got.Data[i] || m.ColIDs[i] != got.ColIDs[i] {
			t.Fatalf("entry %d changed across the wire", i)
		}
	}
	// A corrupt payload is rejected, not stored.
	d.RowOffsets[len(d.RowOffsets)-1]++
	if _, err := d.Matrix(); err == nil {
		t.Fatal("corrupt matrix data was accepted")
	}
}

// goldenMatrix is the hand-written 2x3 matrix [[1.5 0 -2] [0 0.25 0]]
// and goldenFrame its binary frame, byte for byte.
var (
	goldenMatrix = MatrixData{
		Rows: 2, Cols: 3,
		RowOffsets: []int64{0, 2, 3},
		ColIDs:     []int32{0, 2, 1},
		Values:     []float64{1.5, -2, 0.25},
	}
	goldenFrame = []byte{
		'S', 'P', 'G', 'M', 'C', 'S', 'R', 1, // magic, version
		2, 0, 0, 0, 0, 0, 0, 0, // rows
		3, 0, 0, 0, 0, 0, 0, 0, // cols
		3, 0, 0, 0, 0, 0, 0, 0, // nnz
		0, 0, 0, 0, 0, 0, 0, 0, // row_offsets[0]
		2, 0, 0, 0, 0, 0, 0, 0, // row_offsets[1]
		3, 0, 0, 0, 0, 0, 0, 0, // row_offsets[2]
		0, 0, 0, 0, // col_ids[0]
		2, 0, 0, 0, // col_ids[1]
		1, 0, 0, 0, // col_ids[2]
		0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // 1.5
		0, 0, 0, 0, 0, 0, 0x00, 0xc0, // -2
		0, 0, 0, 0, 0, 0, 0xd0, 0x3f, // 0.25
	}
)

// TestBinaryFrameStability pins the application/x-spgemm-csr layout
// the way TestWireFieldStability pins the JSON names: the media type
// string and every byte of a known frame. A failure here is a
// wire-breaking change and needs a new version byte. Both element paths
// of the codec write and read the same bytes.
func TestBinaryFrameStability(t *testing.T) {
	if MediaTypeCSR != "application/x-spgemm-csr" {
		t.Fatalf("media type changed: %q", MediaTypeCSR)
	}
	forEachPath(func(path string) {
		var buf bytes.Buffer
		if err := WriteMatrixBinary(&buf, &goldenMatrix); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), goldenFrame) {
			t.Fatalf("%s: frame layout changed:\n got %v\nwant %v", path, buf.Bytes(), goldenFrame)
		}
		if int64(len(goldenFrame)) != BinarySize(&goldenMatrix) {
			t.Fatalf("BinarySize = %d, frame is %d bytes", BinarySize(&goldenMatrix), len(goldenFrame))
		}
		got, err := ReadMatrixBinary(bytes.NewReader(goldenFrame), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, goldenMatrix) {
			t.Fatalf("%s: golden frame decoded to %+v", path, *got)
		}
	})
}

// TestMatrixSpecBuild covers the generator dispatch: every kind
// produces a matrix of the documented shape, unknown kinds and
// oversized dimensions error.
func TestMatrixSpecBuild(t *testing.T) {
	m, err := MatrixSpec{Kind: "er", Rows: 32, Cols: 16, Density: 0.1, Seed: 1}.Build()
	if err != nil || m.Rows != 32 || m.Cols != 16 {
		t.Fatalf("er = %v %v", m, err)
	}
	m, err = MatrixSpec{Kind: "band", N: 64, Half: 2}.Build()
	if err != nil || m.Rows != 64 {
		t.Fatalf("band = %v %v", m, err)
	}
	m, err = MatrixSpec{Kind: "blocks", N: 64, Block: 8, Seed: 3}.Build()
	if err != nil || m.Rows != 64 {
		t.Fatalf("blocks = %v %v", m, err)
	}
	// Dense diagonal blocks: nnz = (n/block) * block² exactly.
	if m.Nnz() != 64*8 {
		t.Fatalf("blocks nnz = %d, want %d", m.Nnz(), 64*8)
	}
	m, err = MatrixSpec{Kind: "rmat", Scale: 6, EdgeFactor: 4, Seed: 2}.Build()
	if err != nil || m.Rows != 1<<6 {
		t.Fatalf("rmat = %v %v", m, err)
	}
	if _, err = (MatrixSpec{Kind: "warp"}).Build(); err == nil {
		t.Fatal("unknown kind did not error")
	}
	if _, err = (MatrixSpec{Kind: "er", Rows: maxGenDim + 1}).Build(); err == nil {
		t.Fatal("oversized er did not error")
	}
	if _, err = (MatrixSpec{Kind: "rmat", Scale: 23}).Build(); err == nil {
		t.Fatal("oversized rmat did not error")
	}
}
