package apiv1

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
)

// Server-side halves of the wire: every /v1 handler of internal/serve
// and internal/cluster reads its body and writes its answer through
// these, so both surfaces bound their inputs, negotiate the matrix
// encoding and shape their envelopes identically.

// controlBodyLimit caps the JSON body of every route that carries no
// matrix payload (multiply, batch, join, drain): the largest legal one
// is a MaxBatchNodes-node DAG of generator specs, a few tens of KiB.
const controlBodyLimit = 1 << 20

// jsonExpansion bounds how much longer a matrix is as JSON text than
// as CSR bytes (a float64 takes up to 25 characters against 8 bytes, a
// column id 11 against 4); matrix routes accept bodies up to this
// multiple of the store budget in either encoding. The binary decoder
// then holds the declared payload to the budget itself.
const jsonExpansion = 4

// isMediaType reports whether a Content-Type value names the type.
func isMediaType(header, want string) bool {
	got, _, err := mime.ParseMediaType(header)
	return err == nil && got == want
}

// acceptsCSR reports whether the request's Accept header names the
// binary matrix type.
func acceptsCSR(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		for _, part := range strings.Split(v, ",") {
			if isMediaType(part, MediaTypeCSR) {
				return true
			}
		}
	}
	return false
}

// WriteJSON answers status with v as JSON. The body is encoded before
// the status line is sent: a value JSON cannot represent (a NaN or
// ±Inf) becomes a 406 envelope, never a 2xx with a truncated body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusNotAcceptable
		_ = json.NewEncoder(&buf).Encode(ErrorResponse{Code: CodeNotAcceptable, Error: fmt.Sprintf(
			"response is not representable as JSON (%v); fetch matrices holding NaN or ±Inf with Accept: %s", err, MediaTypeCSR)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// WriteMatrix answers a matrix fetch: the binary frame iff the
// request's Accept names MediaTypeCSR, otherwise JSON as always.
func WriteMatrix(w http.ResponseWriter, r *http.Request, d *MatrixData) {
	if !acceptsCSR(r) {
		WriteJSON(w, http.StatusOK, d)
		return
	}
	w.Header().Set("Content-Type", MediaTypeCSR)
	w.Header().Set("Content-Length", strconv.FormatInt(BinarySize(d), 10))
	// A write error here is a client gone mid-body; the declared length
	// tells it the frame is short.
	_ = WriteMatrixBinary(w, d)
}

// bodyOK reports whether a request body was read, answering the error
// envelope when it was not: 413 with the oom code when the body outgrew
// its cap (the transport's or the binary decoder's), 400 otherwise.
func bodyOK(w http.ResponseWriter, err error) bool {
	var tooLong *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLong), errors.Is(err, ErrBinaryTooLarge):
		WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{Code: CodeOOM, Error: "request body too large: " + err.Error()})
	default:
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Code: CodeBadRequest, Error: "bad request body: " + err.Error()})
	}
	return false
}

// ReadJSON decodes the body of a control route (no matrix payload)
// into v under a small fixed cap. On failure it has answered the error
// envelope and returns false.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return bodyOK(w, json.NewDecoder(http.MaxBytesReader(w, r.Body, controlBodyLimit)).Decode(v))
}

// matrixBody bounds the body of a matrix route and reports whether it
// holds binary frames (Content-Type is MediaTypeCSR) rather than JSON.
func matrixBody(w http.ResponseWriter, r *http.Request, storeBytes int64) (body io.Reader, frames bool) {
	return http.MaxBytesReader(w, r.Body, jsonExpansion*storeBytes), isMediaType(r.Header.Get("Content-Type"), MediaTypeCSR)
}

// ReadMatrixRequest decodes a POST /v1/matrices body: one binary frame
// (the request is then {Data: frame}) iff Content-Type is MediaTypeCSR,
// otherwise the JSON MatrixRequest. storeBytes is the matrix store's
// budget: a frame declaring a payload that could never be stored is
// refused with 413 before it is read, and so is a JSON data object
// whose dimensions declare one (rows alone do: nil row_offsets stand
// for rows+1 zeros somebody has to allocate). On failure it has
// answered the envelope and returns false.
func ReadMatrixRequest(w http.ResponseWriter, r *http.Request, storeBytes int64) (MatrixRequest, bool) {
	var req MatrixRequest
	var err error
	if body, frames := matrixBody(w, r, storeBytes); frames {
		req.Data, err = ReadMatrixBinary(body, storeBytes)
	} else if err = json.NewDecoder(body).Decode(&req); err == nil && req.Data != nil {
		err = req.Data.charge(&storeBytes)
	}
	return req, bodyOK(w, err)
}

// ReadMatrixBatchRequest is ReadMatrixRequest for POST
// /v1/matrices/bulk: a u32 count then that many frames, or the JSON
// MatrixBatchRequest. storeBytes caps the matrices' payloads together.
func ReadMatrixBatchRequest(w http.ResponseWriter, r *http.Request, storeBytes int64) (MatrixBatchRequest, bool) {
	var req MatrixBatchRequest
	var err error
	if body, frames := matrixBody(w, r, storeBytes); frames {
		var ds []*MatrixData
		ds, err = readBulkBinary(body, storeBytes)
		for _, d := range ds {
			req.Matrices = append(req.Matrices, MatrixRequest{Data: d})
		}
	} else if err = json.NewDecoder(body).Decode(&req); err == nil {
		for i := 0; err == nil && i < len(req.Matrices); i++ {
			if d := req.Matrices[i].Data; d != nil {
				if err = d.charge(&storeBytes); err != nil {
					err = fmt.Errorf("bulk entry %d: %w", i, err)
				}
			}
		}
	}
	return req, bodyOK(w, err)
}
