// Package insqclient is the Go client for insqd. It wraps the JSON API
// (internal/api) in typed calls, plus SSE result subscription and the
// binary streaming ingest path (DialIngest / DialIngestTCP; see
// ingest.go). It does not retry: a transient server condition — 503
// (recovery/degraded) or 429 (admission-control shed), each with a
// Retry-After hint — comes back to the caller as an *APIError.
//
// Server-side errors surface as *APIError carrying the HTTP status and
// the machine-readable code from the shared error table, so callers
// branch on api.ErrorCode instead of matching message strings:
//
//	c := insqclient.New("http://localhost:8080", insqclient.Options{})
//	sid, err := c.CreateSession(5, 1.6, false)
//	var ae *insqclient.APIError
//	if errors.As(err, &ae) && ae.Code == api.CodeUnavailable { ... }
//
// The repository benchmark (benchmark/) and the insqd end-to-end tests
// are both built on this package; it is the reference consumer of the
// wire protocol.
package insqclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
)

// Options tunes a Client. The zero value is ready to use.
type Options struct {
	// HTTPClient overrides the request/response client (tests inject
	// httptest clients). Streaming endpoints (Subscribe, DialIngest) use
	// its Transport but never its Timeout — a deadline would sever the
	// long-lived stream.
	HTTPClient *http.Client
	// Retries is ignored. It capped the retries of a policy the client no
	// longer has, and stays so that existing callers compile.
	Retries int
}

// Client talks to one insqd base URL. Safe for concurrent use.
type Client struct {
	base string
	c    *http.Client
}

// New returns a client for the given base URL (e.g. "http://host:8080",
// no trailing slash).
func New(base string, opts Options) *Client {
	c := opts.HTTPClient
	if c == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		c = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	return &Client{base: strings.TrimSuffix(base, "/"), c: c}
}

// APIError is a non-2xx server response: the HTTP status plus the
// machine-readable code and message from api.ErrorResponse. Reach it
// with errors.As.
type APIError struct {
	Endpoint string
	Status   int
	Code     api.ErrorCode
	Message  string
}

func (e *APIError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("%s: status %d (%s)", e.Endpoint, e.Status, e.Code)
	}
	return fmt.Sprintf("%s: status %d (%s): %s", e.Endpoint, e.Status, e.Code, e.Message)
}

// Transient reports whether the error is a transient server condition
// (shed, degraded, recovering) that a retry may outwait.
func (e *APIError) Transient() bool { return api.Transient(e.Code) }

// apiError drains a non-2xx body into an *APIError.
func apiError(endpoint string, r *http.Response) error {
	var e api.ErrorResponse
	json.NewDecoder(r.Body).Decode(&e)
	code := e.Code
	if code == "" {
		code = api.CodeInternal
	}
	return &APIError{Endpoint: endpoint, Status: r.StatusCode, Code: code, Message: e.Error}
}

// PostJSON posts req to path and decodes the response into resp (may be
// nil). The typed endpoint methods below are wrappers over this.
func (c *Client) PostJSON(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := c.c.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode >= 300 {
		return apiError(path, r)
	}
	if resp != nil {
		return json.NewDecoder(r.Body).Decode(resp)
	}
	return nil
}

// delete issues DELETE path.
func (c *Client) delete(path string) error {
	req, err := http.NewRequest(http.MethodDelete, c.base+path, nil)
	if err != nil {
		return err
	}
	r, err := c.c.Do(req)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode >= 300 {
		return apiError(path, r)
	}
	return nil
}

// CreateSession opens a live MkNN query session (network selects the
// road-network side) and returns its id.
func (c *Client) CreateSession(k int, rho float64, network bool) (uint64, error) {
	var resp api.CreateSessionResponse
	err := c.PostJSON("/v1/sessions", api.CreateSessionRequest{K: k, Rho: rho, Network: network}, &resp)
	return resp.Session, err
}

// CloseSession ends a session.
func (c *Client) CloseSession(sid uint64) error {
	return c.delete(fmt.Sprintf("/v1/sessions/%d", sid))
}

// Update posts one batch of plane location updates.
func (c *Client) Update(entries []api.UpdateEntry) (*api.UpdateResponse, error) {
	var resp api.UpdateResponse
	if err := c.PostJSON("/v1/update", api.UpdateRequest{Updates: entries}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// NetworkUpdate posts one batch of road-network location updates.
func (c *Client) NetworkUpdate(entries []api.NetworkUpdateEntry) (*api.UpdateResponse, error) {
	var resp api.UpdateResponse
	if err := c.PostJSON("/v1/network/update", api.NetworkUpdateRequest{Updates: entries}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// AddObject inserts a plane data object and returns its assigned id.
func (c *Client) AddObject(x, y float64) (int, error) {
	var resp api.ObjectResponse
	err := c.PostJSON("/v1/objects", api.ObjectRequest{X: x, Y: y}, &resp)
	return resp.ID, err
}

// RemoveObject deletes a plane data object by id.
func (c *Client) RemoveObject(id int) error {
	return c.delete(fmt.Sprintf("/v1/objects/%d", id))
}

// AddNetworkObject inserts a network data object at a vertex.
func (c *Client) AddNetworkObject(vertex int) (int, error) {
	var resp api.ObjectResponse
	err := c.PostJSON("/v1/network/objects", api.NetworkObjectRequest{Vertex: vertex}, &resp)
	return resp.ID, err
}

// RemoveNetworkObject deletes the network data object at a vertex.
func (c *Client) RemoveNetworkObject(vertex int) error {
	return c.delete(fmt.Sprintf("/v1/network/objects/%d", vertex))
}

// Stats fetches the merged serving snapshot.
func (c *Client) Stats() (*api.StatsResponse, error) {
	r, err := c.c.Get(c.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	if r.StatusCode >= 300 {
		return nil, apiError("/v1/stats", r)
	}
	var resp api.StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Subscribe opens one multi-session SSE stream and parses it on a
// dedicated goroutine, invoking onEvent per push. The returned stop
// function severs the stream and waits for the goroutine to exit. The
// stream bypasses the client Timeout (it is long-lived by design).
func (c *Client) Subscribe(sids []uint64, onEvent func(api.SessionEvent)) (func(), error) {
	parts := make([]string, len(sids))
	for i, sid := range sids {
		parts[i] = strconv.FormatUint(sid, 10)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/events?sessions="+strings.Join(parts, ","), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.transport().RoundTrip(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		defer cancel()
		return nil, apiError("/v1/events", resp)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer resp.Body.Close()
		ReadSSE(resp.Body, onEvent)
	}()
	return func() {
		cancel()
		<-done
	}, nil
}

// transport is the raw RoundTripper for streaming endpoints.
func (c *Client) transport() http.RoundTripper {
	if c.c.Transport != nil {
		return c.c.Transport
	}
	return http.DefaultTransport
}

// ReadSSE parses a text/event-stream body, invoking onEvent per data
// frame, until the stream ends. Exported for tests that consume raw
// event streams.
func ReadSSE(body io.Reader, onEvent func(api.SessionEvent)) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) > 0 {
				var ev api.SessionEvent
				if err := json.Unmarshal(data, &ev); err == nil {
					onEvent(ev)
				}
				data = data[:0]
			}
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: ")...)
		}
	}
}
