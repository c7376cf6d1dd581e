package apiv1

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientDecodesEnvelope stubs a server speaking the uniform
// envelope and checks the client turns every non-2xx into a typed
// *APIError carrying status, code, message and the retry hint.
func TestClientDecodesEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/multiply":
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(ErrorResponse{
				Code: CodeOverloaded, Error: "serve: overloaded", RetryAfterSec: 2,
			})
		case "/v1/matrices/ghost":
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(ErrorResponse{Code: CodeUnknownHandle, Error: "no such handle"})
		default:
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("{}"))
		}
	}))
	defer ts.Close()
	cli := NewClient(ts.URL)

	_, err := cli.Multiply(MultiplyRequest{Engine: "cpu"})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != http.StatusTooManyRequests || ae.Code != CodeOverloaded || ae.RetryAfterSec != 2 {
		t.Fatalf("APIError = %+v", ae)
	}
	if ae.Error() == "" || ae.Message != "serve: overloaded" {
		t.Fatalf("message lost: %+v", ae)
	}

	err = cli.DeleteMatrix("ghost")
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Code != CodeUnknownHandle {
		t.Fatalf("delete err = %v", err)
	}
}

// flakyServer sheds the first n requests per path with the given
// status (and a Retry-After hint when hinted), then serves.
func flakyServer(shed int, status int, hintSec float64) (*httptest.Server, *int32) {
	var calls int32
	mu := sync.Mutex{}
	perPath := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		mu.Lock()
		perPath[r.URL.Path]++
		n := perPath[r.URL.Path]
		mu.Unlock()
		if n <= shed {
			if hintSec > 0 {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(status)
			_ = json.NewEncoder(w).Encode(ErrorResponse{
				Code: CodeOverloaded, Error: "shed", RetryAfterSec: hintSec,
			})
			return
		}
		switch r.URL.Path {
		case "/v1/multiply":
			_ = json.NewEncoder(w).Encode(MultiplyResponse{Engine: "cpu", NnzC: 7})
		default:
			_, _ = w.Write([]byte("{}"))
		}
	}))
	return ts, &calls
}

// TestClientRetriesShedMultiply: a multiply shed twice with 429 then
// served succeeds under the retry policy, the recorded sleeps follow
// the Retry-After hint, and the jitter is deterministic per seed.
func TestClientRetriesShedMultiply(t *testing.T) {
	ts, calls := flakyServer(2, http.StatusTooManyRequests, 0.5)
	defer ts.Close()
	var slept []time.Duration
	cli := NewClient(ts.URL)
	cli.Retry = &RetryPolicy{
		MaxAttempts: 4, Seed: 7,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	resp, err := cli.Multiply(MultiplyRequest{Engine: "cpu"})
	if err != nil {
		t.Fatalf("multiply with retry: %v", err)
	}
	if resp.NnzC != 7 {
		t.Fatalf("response = %+v", resp)
	}
	if *calls != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 shed + 1 ok)", *calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	// The 0.5s hint overrides the 50ms exponential base; jitter keeps
	// the delay in [0.4s, 0.5s] (jitter fraction 0.2).
	for i, d := range slept {
		if d < 400*time.Millisecond || d > 500*time.Millisecond {
			t.Fatalf("sleep %d = %v outside the hinted [400ms, 500ms]", i, d)
		}
	}

	// Determinism: the same seed replays the same jittered delays.
	ts2, _ := flakyServer(2, http.StatusTooManyRequests, 0.5)
	defer ts2.Close()
	var slept2 []time.Duration
	cli2 := NewClient(ts2.URL)
	cli2.Retry = &RetryPolicy{
		MaxAttempts: 4, Seed: 7,
		Sleep: func(d time.Duration) { slept2 = append(slept2, d) },
	}
	if _, err := cli2.Multiply(MultiplyRequest{Engine: "cpu"}); err != nil {
		t.Fatal(err)
	}
	for i := range slept {
		if slept[i] != slept2[i] {
			t.Fatalf("seeded jitter not deterministic: %v vs %v", slept, slept2)
		}
	}
}

// TestClientRetryExhaustionAndBackoffCap: a server that never stops
// shedding exhausts MaxAttempts and surfaces the last *APIError; the
// un-hinted exponential schedule stays under MaxDelay.
func TestClientRetryExhaustionAndBackoffCap(t *testing.T) {
	ts, calls := flakyServer(1000, http.StatusServiceUnavailable, 0)
	defer ts.Close()
	var slept []time.Duration
	cli := NewClient(ts.URL)
	cli.Retry = &RetryPolicy{
		MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 25 * time.Millisecond,
		Jitter: -1, Seed: 1,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	_, err := cli.Batch(BatchRequest{Nodes: []BatchNode{{ID: "s1", A: Operand{Handle: "h"}}}})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 *APIError after exhaustion", err)
	}
	if *calls != 5 {
		t.Fatalf("server saw %d calls, want 5", *calls)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond, 25 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff schedule %v, want %v (no-jitter)", slept, want)
		}
	}
}

// TestClientNeverRetriesStoreMutations: shed responses on the store
// endpoints surface immediately even with a retry policy configured —
// a mutation whose response was lost may have taken effect.
func TestClientNeverRetriesStoreMutations(t *testing.T) {
	ts, calls := flakyServer(1000, http.StatusTooManyRequests, 0)
	defer ts.Close()
	cli := NewClient(ts.URL)
	cli.Retry = &RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {
		t.Fatal("retry slept on a store mutation")
	}}
	if _, err := cli.StoreMatrix(MatrixRequest{Spec: &MatrixSpec{Kind: "er"}}); err == nil {
		t.Fatal("store succeeded against an always-shedding server")
	}
	if err := cli.DeleteMatrix("m-xyz"); err == nil {
		t.Fatal("delete succeeded against an always-shedding server")
	}
	if *calls != 2 {
		t.Fatalf("server saw %d calls, want 2 (one per mutation, no retries)", *calls)
	}
}

// TestClientNoRetryOnNonShedStatuses: a 500 (the job ran and failed)
// must never be retried, even under a policy.
func TestClientNoRetryOnNonShedStatuses(t *testing.T) {
	ts, calls := flakyServer(1000, http.StatusInternalServerError, 0)
	defer ts.Close()
	cli := NewClient(ts.URL)
	cli.Retry = &RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {
		t.Fatal("retry slept on a non-shed status")
	}}
	if _, err := cli.Multiply(MultiplyRequest{Engine: "cpu"}); err == nil {
		t.Fatal("multiply succeeded against an erroring server")
	}
	if *calls != 1 {
		t.Fatalf("server saw %d calls, want 1", *calls)
	}
}

// TestClientRoundTrips checks the happy-path encode/decode of the
// endpoint methods against a recording stub.
func TestClientRoundTrips(t *testing.T) {
	var gotPath, gotMethod string
	var gotBody BatchRequest
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath, gotMethod = r.URL.Path, r.Method
		switch r.URL.Path {
		case "/v1/batch":
			_ = json.NewDecoder(r.Body).Decode(&gotBody)
			_ = json.NewEncoder(w).Encode(BatchResponse{
				Completed: 1,
				Nodes:     []NodeResult{{ID: "s1", Status: StatusOK, NnzC: 9}},
			})
		case "/metricsz":
			_ = json.NewEncoder(w).Encode(map[string]float64{"serve_jobs_accepted": 3})
		default:
			_, _ = w.Write([]byte("{}"))
		}
	}))
	defer ts.Close()
	cli := NewClient(ts.URL)

	resp, err := cli.Batch(BatchRequest{Engine: "cpu", Nodes: []BatchNode{{ID: "s1", A: Operand{Handle: "h"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if gotPath != "/v1/batch" || gotMethod != http.MethodPost {
		t.Fatalf("request went to %s %s", gotMethod, gotPath)
	}
	if len(gotBody.Nodes) != 1 || gotBody.Nodes[0].ID != "s1" {
		t.Fatalf("server saw %+v", gotBody)
	}
	if resp.Completed != 1 || resp.Nodes[0].NnzC != 9 {
		t.Fatalf("batch response = %+v", resp)
	}

	metricsSnap, err := cli.Metrics()
	if err != nil || metricsSnap["serve_jobs_accepted"] != 3 {
		t.Fatalf("metrics = %v %v", metricsSnap, err)
	}
	if err := cli.WaitHealthy(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestClientChoosesEncodingFromTheRequest: the zero-value client sends
// a matrix upload carrying Data as binary frames and everything else as
// JSON, asks for the binary fetch, and reads whichever encoding the
// server answered with — so it still fetches from a JSON-only server.
func TestClientChoosesEncodingFromTheRequest(t *testing.T) {
	want := &goldenMatrix
	var seen []string // "path content-type accept"
	var uploaded []*MatrixData
	binaryFetch := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, r.URL.Path+" "+r.Header.Get("Content-Type")+" "+r.Header.Get("Accept"))
		switch {
		case r.Method == http.MethodGet && binaryFetch:
			WriteMatrix(w, r, want)
		case r.Method == http.MethodGet:
			// A server that has never heard of the binary type.
			_ = json.NewEncoder(w).Encode(want)
		case r.URL.Path == "/v1/matrices":
			req, ok := ReadMatrixRequest(w, r, 1<<20)
			if !ok {
				return
			}
			uploaded = append(uploaded, req.Data)
			WriteJSON(w, http.StatusOK, MatrixResponse{Handle: "h"})
		default:
			req, ok := ReadMatrixBatchRequest(w, r, 1<<20)
			if !ok {
				return
			}
			for _, m := range req.Matrices {
				uploaded = append(uploaded, m.Data)
			}
			WriteJSON(w, http.StatusOK, MatrixBatchResponse{Matrices: make([]MatrixResponse, len(req.Matrices))})
		}
	}))
	defer ts.Close()
	cli := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	if _, err := cli.StoreMatrix(MatrixRequest{Data: want}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.StoreMatrix(MatrixRequest{Spec: &MatrixSpec{Kind: "er"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.StoreMatrixBulk(ctx, MatrixBatchRequest{Matrices: []MatrixRequest{{Data: want}, {Data: want}}}); err != nil {
		t.Fatal(err)
	}
	// One entry without Data: the whole bulk stays JSON.
	if _, err := cli.StoreMatrixBulk(ctx, MatrixBatchRequest{Matrices: []MatrixRequest{{Data: want}, {Handle: "h", ValuesSeed: 2}}}); err != nil {
		t.Fatal(err)
	}
	for _, binaryFetch = range []bool{false, true} {
		got, err := cli.FetchMatrix(ctx, "h")
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("fetch (binary server: %v) = %+v, %v", binaryFetch, got, err)
		}
	}
	accept := MediaTypeCSR + ", application/json"
	wantSeen := []string{
		"/v1/matrices " + MediaTypeCSR + " ",
		"/v1/matrices application/json ",
		"/v1/matrices/bulk " + MediaTypeCSR + " ",
		"/v1/matrices/bulk application/json ",
		"/v1/matrices/h  " + accept,
		"/v1/matrices/h  " + accept,
	}
	if !reflect.DeepEqual(seen, wantSeen) {
		t.Fatalf("requests:\n got %q\nwant %q", seen, wantSeen)
	}
	// Data, nil (spec), Data, Data, Data, nil (revalue).
	if len(uploaded) != 6 || !reflect.DeepEqual(uploaded[0], want) || uploaded[1] != nil ||
		!reflect.DeepEqual(uploaded[3], want) || !reflect.DeepEqual(uploaded[4], want) || uploaded[5] != nil {
		t.Fatalf("server decoded %d uploads: %+v", len(uploaded), uploaded)
	}
}
