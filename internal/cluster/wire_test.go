package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// The matrix routes speak two encodings on both HTTP surfaces. These
// tests run every case against a single server and against a
// coordinator, because the two surfaces share the negotiation by
// construction (apiv1's helpers) and must keep doing so.

// surfaces starts a serve.Server and a one-replica coordinator on real
// sockets and returns their base URLs by name.
func surfaces(t *testing.T) map[string]string {
	t.Helper()
	_, single := remoteServe(t, serve.Config{MaxConcurrent: 2})
	tc := newTestCluster(t, 1, Config{})
	coord := httptest.NewServer(tc.c.Handler())
	t.Cleanup(coord.Close)
	return map[string]string{"serve": single.URL, "coordinator": coord.URL}
}

func contentHandle(m *spgemm.Matrix) string {
	return fmt.Sprintf("m-%016x%016x", spgemm.Fingerprint(m), spgemm.FingerprintValues(m))
}

func binaryFrame(t *testing.T, m *spgemm.Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := apiv1.WriteMatrixBinary(&buf, apiv1.MatrixDataFrom(m)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// do sends one raw request and returns the status, Content-Type and
// body.
func do(t *testing.T, method, url, contentType, accept string, body []byte) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading the %d response: %v", method, url, resp.StatusCode, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), out
}

func envelope(t *testing.T, body []byte) apiv1.ErrorResponse {
	t.Helper()
	var env apiv1.ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("body is not the error envelope: %q", body)
	}
	return env
}

// jsonLine is what the pre-binary handlers wrote for v: json.Encoder
// output, trailing newline included.
func jsonLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireJSONUnchangedWithoutHeaders: a client that sends JSON and
// names no Accept sees the bytes it always saw, on upload and fetch,
// and the content handle does not depend on the encoding that carried
// the matrix.
func TestWireJSONUnchangedWithoutHeaders(t *testing.T) {
	m := testMatrix(3)
	want := apiv1.MatrixResponse{
		Handle: contentHandle(m), Rows: m.Rows, Cols: m.Cols, Nnz: m.Nnz(), Bytes: m.Bytes(),
		StructureFP: fmt.Sprintf("%016x", spgemm.Fingerprint(m)),
	}
	for name, base := range surfaces(t) {
		t.Run(name, func(t *testing.T) {
			body, _ := json.Marshal(apiv1.MatrixRequest{Data: apiv1.MatrixDataFrom(m)})
			status, ct, got := do(t, http.MethodPost, base+"/v1/matrices", "application/json", "", body)
			if status != http.StatusOK || ct != "application/json" || !bytes.Equal(got, jsonLine(t, want)) {
				t.Fatalf("JSON upload: %d %s %s\nwant %s", status, ct, got, jsonLine(t, want))
			}
			status, ct, got = do(t, http.MethodGet, base+"/v1/matrices/"+want.Handle, "", "", nil)
			if status != http.StatusOK || ct != "application/json" || !bytes.Equal(got, jsonLine(t, apiv1.MatrixDataFrom(m))) {
				t.Fatalf("JSON fetch: %d %s, %d bytes", status, ct, len(got))
			}
			// An Accept that does not name the type changes nothing.
			if _, ct, again := do(t, http.MethodGet, base+"/v1/matrices/"+want.Handle, "", "application/json, */*", nil); ct != "application/json" || !bytes.Equal(again, got) {
				t.Fatalf("fetch with a JSON Accept answered %s", ct)
			}

			// The same matrix as a frame: same handle, same JSON answer.
			status, _, got = do(t, http.MethodPost, base+"/v1/matrices", apiv1.MediaTypeCSR, "", binaryFrame(t, m))
			if status != http.StatusOK || !bytes.Equal(got, jsonLine(t, want)) {
				t.Fatalf("binary upload: %d %s", status, got)
			}
			status, ct, got = do(t, http.MethodGet, base+"/v1/matrices/"+want.Handle, "", "application/json;q=0.5, "+apiv1.MediaTypeCSR, nil)
			if status != http.StatusOK || ct != apiv1.MediaTypeCSR || !bytes.Equal(got, binaryFrame(t, m)) {
				t.Fatalf("binary fetch: %d %s, %d bytes", status, ct, len(got))
			}
		})
	}
}

// TestWireNonFiniteValues is the regression test for the empty-200
// fetch: a stored matrix holding values JSON cannot write answers a
// typed 406 to a JSON fetch and round-trips every bit pattern through
// the binary one.
func TestWireNonFiniteValues(t *testing.T) {
	m := spgemm.Band(6, 1, 1)
	bits := []uint64{
		0x7ff8000000000001,                     // quiet NaN with a payload
		0x7ff4000000000000,                     // signalling NaN
		math.Float64bits(math.Inf(1)),          // +Inf
		math.Float64bits(math.Inf(-1)),         // -Inf
		math.Float64bits(math.Copysign(0, -1)), // -0.0
	}
	for i, b := range bits {
		m.Data[i] = math.Float64frombits(b)
	}
	for name, base := range surfaces(t) {
		t.Run(name, func(t *testing.T) {
			cli := apiv1.NewClient(base)
			resp, err := cli.StoreMatrix(apiv1.MatrixRequest{Data: apiv1.MatrixDataFrom(m)})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Handle != contentHandle(m) {
				t.Fatalf("handle %s, want %s", resp.Handle, contentHandle(m))
			}
			status, ct, body := do(t, http.MethodGet, base+"/v1/matrices/"+resp.Handle, "", "", nil)
			env := envelope(t, body)
			if status != http.StatusNotAcceptable || ct != "application/json" ||
				env.Code != apiv1.CodeNotAcceptable || !strings.Contains(env.Error, apiv1.MediaTypeCSR) {
				t.Fatalf("JSON fetch of NaN/Inf values: %d %s %q", status, ct, body)
			}
			d, err := cli.FetchMatrix(context.Background(), resp.Handle)
			if err != nil {
				t.Fatal(err)
			}
			for i := range m.Data {
				if math.Float64bits(d.Values[i]) != math.Float64bits(m.Data[i]) {
					t.Fatalf("value %d: bits %016x, want %016x", i, math.Float64bits(d.Values[i]), math.Float64bits(m.Data[i]))
				}
			}
		})
	}
}

// TestWireRejectsHostileBodies: malformed frames are 400 envelopes,
// oversized ones (declared or actual) 413 envelopes, on every
// body-reading route of both surfaces — never a 500, a hang or a
// dropped connection.
func TestWireRejectsHostileBodies(t *testing.T) {
	good := binaryFrame(t, testMatrix(5))
	header := func(rows, cols, nnz uint64) []byte {
		b := append([]byte("SPGMCSR\x01"), make([]byte, 24)...)
		binary.LittleEndian.PutUint64(b[8:], rows)
		binary.LittleEndian.PutUint64(b[16:], cols)
		binary.LittleEndian.PutUint64(b[24:], nnz)
		return b
	}
	bulk := func(count uint32, frames ...[]byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, count)
		for _, f := range frames {
			b = append(b, f...)
		}
		return b
	}
	badOffsets := append([]byte(nil), good...)
	badOffsets[32] = 1 // row_offsets[0] = 1
	cases := []struct {
		name, path, contentType string
		body                    []byte
		status                  int
		code                    string
	}{
		{"json sent as binary", "/v1/matrices", apiv1.MediaTypeCSR, []byte(`{"spec":{"kind":"er"}}`), 400, apiv1.CodeBadRequest},
		{"binary sent as json", "/v1/matrices", "application/json", good, 400, apiv1.CodeBadRequest},
		{"json offset past nnz", "/v1/matrices", "application/json", []byte(`{"data":{"rows":2,"cols":3,"row_offsets":[0,9,3],"col_ids":[0,1,2],"values":[1,2,3]}}`), 400, apiv1.CodeBadRequest},
		{"truncated frame", "/v1/matrices", apiv1.MediaTypeCSR, good[:len(good)-5], 400, apiv1.CodeBadRequest},
		{"trailing byte", "/v1/matrices", apiv1.MediaTypeCSR, append(good[:len(good):len(good)], 0), 400, apiv1.CodeBadRequest},
		{"offsets[0] != 0", "/v1/matrices", apiv1.MediaTypeCSR, badOffsets, 400, apiv1.CodeBadRequest},
		{"rows 2^63", "/v1/matrices", apiv1.MediaTypeCSR, header(1<<63, 1, 0), 400, apiv1.CodeBadRequest},
		{"2^40 nnz declared", "/v1/matrices", apiv1.MediaTypeCSR, header(1<<21, 1<<21, 1<<40), 413, apiv1.CodeOOM},
		{"bulk count over frames", "/v1/matrices/bulk", apiv1.MediaTypeCSR, bulk(3, good, good), 400, apiv1.CodeBadRequest},
		{"bulk frames over count", "/v1/matrices/bulk", apiv1.MediaTypeCSR, bulk(1, good, good), 400, apiv1.CodeBadRequest},
		{"bulk of nothing", "/v1/matrices/bulk", apiv1.MediaTypeCSR, bulk(0), 400, apiv1.CodeBadRequest},
		{"bulk with a huge frame", "/v1/matrices/bulk", apiv1.MediaTypeCSR, bulk(2, good, header(1<<21, 1<<21, 1<<40)), 413, apiv1.CodeOOM},
		{"oversized multiply", "/v1/multiply", "application/json", []byte(`{"engine":"` + strings.Repeat("x", 1<<20) + `"}`), 413, apiv1.CodeOOM},
		{"oversized batch", "/v1/batch", "application/json", []byte(`{"engine":"` + strings.Repeat("x", 1<<20) + `"}`), 413, apiv1.CodeOOM},
		{"oversized drain", "/v1/admin/drain", "application/json", []byte(`{"pad":"` + strings.Repeat("x", 1<<20) + `"}`), 413, apiv1.CodeOOM},
	}
	for name, base := range surfaces(t) {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				status, ct, body := do(t, http.MethodPost, base+tc.path, tc.contentType, "", tc.body)
				if env := envelope(t, body); status != tc.status || env.Code != tc.code || ct != "application/json" {
					t.Fatalf("%d %s %q, want %d %s", status, ct, body, tc.status, tc.code)
				}
			})
		}
	}
	// The coordinator-only control route.
	status, _, body := do(t, http.MethodPost, surfaces(t)["coordinator"]+"/v1/join", "application/json", "",
		[]byte(`{"name":"`+strings.Repeat("x", 1<<20)+`"}`))
	if env := envelope(t, body); status != 413 || env.Code != apiv1.CodeOOM {
		t.Fatalf("oversized join: %d %q", status, body)
	}

	// The matrix routes are capped from the store budget: a server with
	// a 4 KiB store refuses a 64 KiB upload in either encoding.
	_, small := remoteServe(t, serve.Config{MaxConcurrent: 1, MatrixStoreBytes: 4 << 10})
	big := spgemm.ER(400, 400, 0.03, 1)
	jsonBody, _ := json.Marshal(apiv1.MatrixRequest{Data: apiv1.MatrixDataFrom(big)})
	for _, up := range []struct {
		contentType string
		body        []byte
	}{{"application/json", jsonBody}, {apiv1.MediaTypeCSR, binaryFrame(t, big)}} {
		status, _, body := do(t, http.MethodPost, small.URL+"/v1/matrices", up.contentType, "", up.body)
		if env := envelope(t, body); status != 413 || env.Code != apiv1.CodeOOM {
			t.Fatalf("%d-byte %s upload into a 4 KiB store: %d %q", len(up.body), up.contentType, status, body)
		}
	}
}

// countingTransport counts request body bytes per path.
type countingTransport struct {
	inner  http.RoundTripper
	upload atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && strings.HasPrefix(req.URL.Path, "/v1/matrices") {
		c.upload.Add(req.ContentLength)
	}
	return c.inner.RoundTrip(req)
}

// TestRemoteReplicaShipsBinary: the coordinator's remote backend —
// spill re-upload, failover re-homing — gets the binary encoding from
// apiv1.Client's zero value, through a real TCP proxy: store, bulk
// store and fetch round-trip, and the uploads are about half the bytes
// the JSON bodies would have been.
func TestRemoteReplicaShipsBinary(t *testing.T) {
	_, ts := remoteServe(t, serve.Config{MaxConcurrent: 2})
	p := faults.NewNetProxy(faults.NetProxyConfig{Seed: 1, Target: strings.TrimPrefix(ts.URL, "http://")})
	addr, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ct := &countingTransport{inner: &http.Transport{DisableKeepAlives: true}}
	r := NewRemoteReplica("r0", "http://"+addr, RemoteConfig{HTTP: &http.Client{Transport: ct}, StoreTimeout: 10 * time.Second})

	ms := []*spgemm.Matrix{spgemm.ER(300, 300, 0.05, 1), spgemm.ER(2000, 2000, 0.002, 2), spgemm.ER(500, 40, 0.2, 3)}
	var jsonBytes int64
	one, _ := json.Marshal(apiv1.MatrixRequest{Data: apiv1.MatrixDataFrom(ms[0])})
	jsonBytes += int64(len(one))
	breq := apiv1.MatrixBatchRequest{}
	for _, m := range ms {
		breq.Matrices = append(breq.Matrices, apiv1.MatrixRequest{Data: apiv1.MatrixDataFrom(m)})
	}
	all, _ := json.Marshal(breq)
	jsonBytes += int64(len(all))

	h, err := r.Store(ms[0])
	if err != nil || h != contentHandle(ms[0]) {
		t.Fatalf("store: %s, %v", h, err)
	}
	hs, err := r.StoreMany(ms)
	if err != nil || len(hs) != len(ms) {
		t.Fatalf("bulk store: %v, %v", hs, err)
	}
	for i, m := range ms {
		if hs[i] != contentHandle(m) {
			t.Fatalf("bulk handle %d = %s, want %s", i, hs[i], contentHandle(m))
		}
		got, ok := r.Matrix(hs[i])
		if !ok || contentHandle(got) != hs[i] {
			t.Fatalf("fetch %d did not round-trip", i)
		}
	}
	if sent := ct.upload.Load(); sent == 0 || float64(sent) > 0.55*float64(jsonBytes) {
		t.Fatalf("uploads sent %d bytes, JSON would be %d: want at most 0.55x", sent, jsonBytes)
	}
}
