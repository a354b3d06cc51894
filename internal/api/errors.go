package api

import (
	"errors"
	"net/http"

	"repro/internal/engine"
)

// ErrorCode is the machine-readable error classification shared by both
// wire surfaces: JSON responses carry it as ErrorResponse.Code (and per
// entry as UpdateResultEntry.Code), binary ingest acks carry its frame
// byte (FrameCode). Codes are stable API; clients switch on them instead
// of parsing error strings.
type ErrorCode string

const (
	CodeOK             ErrorCode = "ok"
	CodeBadRequest     ErrorCode = "bad_request"
	CodeTooLarge       ErrorCode = "too_large"
	CodeUnknownSession ErrorCode = "unknown_session"
	CodeUnknownObject  ErrorCode = "unknown_object"
	CodeSiteExists     ErrorCode = "site_exists"
	CodeLastSite       ErrorCode = "last_site"
	CodeNoNetwork      ErrorCode = "no_network"
	CodeNoPlaneIndex   ErrorCode = "no_plane_index"
	CodeOutOfBounds    ErrorCode = "out_of_bounds"
	CodeDegraded       ErrorCode = "degraded"
	CodeOverloaded     ErrorCode = "overloaded"
	CodeExpired        ErrorCode = "expired"
	CodeUnavailable    ErrorCode = "unavailable"
	CodeInternal       ErrorCode = "internal"
	// CodeBadFrame is protocol-level: the ingest stream carried a frame the
	// server could not decode (bad CRC, bad codec). The connection closes
	// after the ack that reports it — framing is lost.
	CodeBadFrame ErrorCode = "bad_frame"
)

// ErrorInfo is one row of the shared error table: how a classified error
// is rendered on each surface.
type ErrorInfo struct {
	Code ErrorCode
	// Status is the HTTP status of a JSON response carrying this code.
	Status int
	// RetryAfter marks transient conditions (degraded durability, admission
	// shed): JSON responses attach a Retry-After header, ingest clients
	// should back off and resend.
	RetryAfter bool
}

// table is the single error→code/status mapping. insqd's JSON handlers
// and the binary frame status bytes both go through it, so the two
// surfaces cannot drift. Order matters only for wrapped errors that match
// multiple targets (none today).
var table = []struct {
	err  error
	info ErrorInfo
}{
	{engine.ErrUnknownSession, ErrorInfo{CodeUnknownSession, http.StatusNotFound, false}},
	{engine.ErrUnknownObject, ErrorInfo{CodeUnknownObject, http.StatusNotFound, false}},
	{engine.ErrSiteExists, ErrorInfo{CodeSiteExists, http.StatusConflict, false}},
	{engine.ErrLastSite, ErrorInfo{CodeLastSite, http.StatusConflict, false}},
	{engine.ErrNoNetwork, ErrorInfo{CodeNoNetwork, http.StatusBadRequest, false}},
	{engine.ErrNoPlaneIndex, ErrorInfo{CodeNoPlaneIndex, http.StatusBadRequest, false}},
	{engine.ErrOutOfBounds, ErrorInfo{CodeOutOfBounds, http.StatusBadRequest, false}},
	{engine.ErrInvalidPosition, ErrorInfo{CodeBadRequest, http.StatusBadRequest, false}},
	{engine.ErrDegraded, ErrorInfo{CodeDegraded, http.StatusServiceUnavailable, true}},
	{engine.ErrOverloaded, ErrorInfo{CodeOverloaded, http.StatusTooManyRequests, true}},
	{engine.ErrExpired, ErrorInfo{CodeExpired, http.StatusGatewayTimeout, false}},
	{engine.ErrClosed, ErrorInfo{CodeUnavailable, http.StatusServiceUnavailable, false}},
}

// Classify maps an engine error onto the shared table. nil classifies as
// CodeOK/200; an unrecognized error as CodeInternal/500.
func Classify(err error) ErrorInfo {
	if err == nil {
		return ErrorInfo{CodeOK, http.StatusOK, false}
	}
	for _, row := range table {
		if errors.Is(err, row.err) {
			return row.info
		}
	}
	return ErrorInfo{CodeInternal, http.StatusInternalServerError, false}
}

// frameCodes fixes the byte each code travels as inside ingest ack
// frames. The numbering is wire format — append only, never renumber.
var frameCodes = map[ErrorCode]byte{
	CodeOK:             0,
	CodeBadRequest:     1,
	CodeTooLarge:       2,
	CodeUnknownSession: 3,
	CodeUnknownObject:  4,
	CodeSiteExists:     5,
	CodeLastSite:       6,
	CodeNoNetwork:      7,
	CodeNoPlaneIndex:   8,
	CodeOutOfBounds:    9,
	CodeDegraded:       10,
	CodeOverloaded:     11,
	CodeExpired:        12,
	CodeUnavailable:    13,
	CodeInternal:       14,
	CodeBadFrame:       15,
}

// codeNames is the inverse of frameCodes, built once at init.
var codeNames = func() map[byte]ErrorCode {
	m := make(map[byte]ErrorCode, len(frameCodes))
	for code, b := range frameCodes {
		m[b] = code
	}
	return m
}()

// FrameCode returns the wire byte for a code; unknown codes travel as
// CodeInternal so a skewed client still sees a well-formed status.
func FrameCode(code ErrorCode) byte {
	if b, ok := frameCodes[code]; ok {
		return b
	}
	return frameCodes[CodeInternal]
}

// CodeFromFrame decodes an ack status byte; unknown bytes (a newer
// server) decode as CodeInternal rather than failing the stream.
func CodeFromFrame(b byte) ErrorCode {
	if code, ok := codeNames[b]; ok {
		return code
	}
	return CodeInternal
}

// Transient reports whether a code is worth retrying after a backoff:
// the degraded window heals, the shard queue drains, a recovering server
// becomes ready.
func Transient(code ErrorCode) bool {
	switch code {
	case CodeDegraded, CodeOverloaded, CodeUnavailable:
		return true
	}
	return false
}
