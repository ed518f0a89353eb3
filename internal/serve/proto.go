package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Wire protocol of the inference server. The same request/response JSON
// travels over both transports — HTTP bodies on /v1/predict and one
// object per line in -stdio mode — so an offline run can be compared
// byte-for-byte against a served one (the CI serve smoke does exactly
// that).

// Request limits. These bound the batch a request can hand to the model:
// they are checked after the body is decoded, so they do not bound what
// decoding allocates — MaxBodyBytes (HTTP) and the line scanner's buffer
// (-stdio) do. Per-model sample-length validation happens later against
// the engine's input shape.
const (
	// MaxRequestInputs caps the samples one request may carry.
	MaxRequestInputs = 4096
	// MaxSampleLen caps the per-sample element count.
	MaxSampleLen = 1 << 20
)

// PredictRequest asks for logits on a batch of flattened samples.
type PredictRequest struct {
	// Model selects a cached model by checkpoint fingerprint; empty
	// selects the server's default model.
	Model string `json:"model,omitempty"`
	// Inputs holds one flattened sample per row, all the same length.
	Inputs [][]float64 `json:"inputs"`
	// DeadlineMS tightens the server's default per-request deadline
	// (milliseconds); 0 keeps the default.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// PredictResponse returns the logits and argmax class per sample.
type PredictResponse struct {
	Model  string      `json:"model"`
	Logits [][]float64 `json:"logits"`
	Preds  []int       `json:"preds"`
}

// ErrBadRequest tags malformed requests so transports can map them to
// 400 instead of 500.
var ErrBadRequest = errors.New("serve: bad request")

// ParsePredictRequest strictly decodes a request body: unknown fields,
// trailing data, empty or oversized batches, ragged rows and negative
// deadlines are all rejected with an error wrapping ErrBadRequest —
// never a panic, whatever the bytes (fuzz-enforced).
//
// A body in the canonical form clients and json.Marshal write is decoded
// in one pass without reflection; every other body goes to
// encoding/json. Both decoders yield the same request for a body the
// first accepts (fuzz-enforced), so the answer, value or error, never
// depends on which one ran.
func ParsePredictRequest(b []byte) (*PredictRequest, error) {
	req, ok := decodeCanonical(b)
	if !ok {
		var err error
		if req, err = decodeJSON(b); err != nil {
			return nil, err
		}
	}
	if req.DeadlineMS < 0 {
		return nil, fmt.Errorf("%w: negative deadline_ms %d", ErrBadRequest, req.DeadlineMS)
	}
	if len(req.Inputs) == 0 {
		return nil, fmt.Errorf("%w: empty inputs", ErrBadRequest)
	}
	if len(req.Inputs) > MaxRequestInputs {
		return nil, fmt.Errorf("%w: %d inputs exceeds limit %d", ErrBadRequest, len(req.Inputs), MaxRequestInputs)
	}
	want := len(req.Inputs[0])
	for i, row := range req.Inputs {
		if len(row) == 0 || len(row) > MaxSampleLen {
			return nil, fmt.Errorf("%w: input %d has %d elements (want 1..%d)", ErrBadRequest, i, len(row), MaxSampleLen)
		}
		if len(row) != want {
			return nil, fmt.Errorf("%w: ragged inputs (%d elements at row %d, %d at row 0)", ErrBadRequest, len(row), i, want)
		}
	}
	return req, nil
}

// decodeJSON is the reference decoder: encoding/json with unknown
// fields and trailing data refused. It alone decides every body
// decodeCanonical declines, and it is the fuzz oracle for the rest.
func decodeJSON(b []byte) (*PredictRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var req PredictRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after request object", ErrBadRequest)
	}
	return &req, nil
}

// decodeCanonical decodes, in a single pass and without reflection, the
// form clients and json.Marshal write: JSON whitespace around one object
// whose keys are the literal "inputs", "model" and "deadline_ms", each at
// most once and in any order; inputs a non-empty array of non-empty
// arrays of JSON numbers; model printable ASCII without '"' or '\';
// deadline_ms an integer literal that fits an int. It reports false for
// anything else — null, escapes, case-folded, duplicate or unknown keys,
// an empty array, a number strconv cannot convert — and the caller hands
// that body to decodeJSON unchanged. Numbers are converted with the call
// encoding/json makes, strconv.ParseFloat(s, 64), so the bits agree.
func decodeCanonical(b []byte) (*PredictRequest, bool) {
	var req PredictRequest
	const haveInputs, haveModel, haveDeadline = 1, 2, 4
	var seen int
	i := skipSpace(b, 0)
	if !at(b, i, '{') {
		return nil, false
	}
	i = skipSpace(b, i+1)
	for !at(b, i, '}') {
		if seen != 0 {
			if !at(b, i, ',') {
				return nil, false
			}
			i = skipSpace(b, i+1)
		}
		start, end, ok := plainString(b, i)
		if !ok {
			return nil, false
		}
		i = skipSpace(b, end+1)
		if !at(b, i, ':') {
			return nil, false
		}
		i = skipSpace(b, i+1)
		var field int
		switch string(b[start:end]) {
		case "inputs":
			field = haveInputs
			req.Inputs, i, ok = canonicalRows(b, i)
		case "model":
			field = haveModel
			if start, end, ok = plainString(b, i); ok {
				req.Model, i = string(b[start:end]), end+1
			}
		case "deadline_ms":
			field = haveDeadline
			end = integerEnd(b, i)
			if ok = end > i; ok {
				var err error
				req.DeadlineMS, err = strconv.Atoi(string(b[i:end]))
				ok, i = err == nil, end
			}
		}
		if !ok || field == 0 || seen&field != 0 {
			return nil, false
		}
		seen |= field
		i = skipSpace(b, i)
	}
	if skipSpace(b, i+1) != len(b) {
		return nil, false
	}
	return &req, true
}

// canonicalRows decodes the inputs array starting at b[i]: one or more
// rows, each sized up front from its comma count so appending never
// copies. It returns the index after the closing ']'.
func canonicalRows(b []byte, i int) ([][]float64, int, bool) {
	if !at(b, i, '[') {
		return nil, 0, false
	}
	var rows [][]float64
	for {
		i = skipSpace(b, i+1)
		if !at(b, i, '[') {
			return nil, 0, false
		}
		n := bytes.IndexByte(b[i:], ']')
		if n < 0 {
			return nil, 0, false
		}
		row := make([]float64, 0, bytes.Count(b[i:i+n], []byte{','})+1)
		for {
			i = skipSpace(b, i+1)
			end := numberEnd(b, i)
			if end < 0 {
				return nil, 0, false
			}
			f, err := strconv.ParseFloat(string(b[i:end]), 64)
			if err != nil {
				return nil, 0, false
			}
			row = append(row, f)
			i = skipSpace(b, end)
			if !at(b, i, ',') {
				break
			}
		}
		if !at(b, i, ']') {
			return nil, 0, false
		}
		rows = append(rows, row)
		i = skipSpace(b, i+1)
		if !at(b, i, ',') {
			break
		}
	}
	if !at(b, i, ']') {
		return nil, 0, false
	}
	return rows, i + 1, true
}

func at(b []byte, i int, c byte) bool { return i < len(b) && b[i] == c }

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// plainString reports the bounds of the contents of the string literal
// at b[i] when it is printable ASCII with no escape; end indexes the
// closing quote.
func plainString(b []byte, i int) (start, end int, ok bool) {
	if !at(b, i, '"') {
		return 0, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return i + 1, j, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return 0, 0, false
		}
	}
	return 0, 0, false
}

func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integerEnd returns the end of the JSON integer -?(0|[1-9][0-9]*) at
// b[i], or -1 when none starts there.
func integerEnd(b []byte, i int) int {
	if at(b, i, '-') {
		i++
	}
	switch {
	case at(b, i, '0'):
		return i + 1
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		return digitsEnd(b, i+1)
	}
	return -1
}

// numberEnd returns the end of the JSON number at b[i] — an integer, then
// an optional fraction and exponent — or -1 when none starts there.
func numberEnd(b []byte, i int) int {
	if i = integerEnd(b, i); i < 0 {
		return -1
	}
	if at(b, i, '.') {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if at(b, i, 'e') || at(b, i, 'E') {
		i++
		if at(b, i, '+') || at(b, i, '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}
