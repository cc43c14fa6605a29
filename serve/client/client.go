// Package client is the typed Go client for skyserved. It speaks the
// serve wire protocol and maps wire error codes back onto the skybench
// sentinel errors, so calling a remote Store feels like calling a local
// one:
//
//	c := client.New("http://localhost:8080")
//	res, err := c.Query(ctx, "hotels", &serve.QueryRequest{SkybandK: 2})
//	if errors.Is(err, skybench.ErrOverloaded) { backoff() }
//
// A context deadline on any call is forwarded to the server in the
// X-Skybench-Deadline-Ms header, so the server stops working on a query
// the client has already given up on.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"skybench/serve"
)

// Client is a skyserved API client. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retry   RetryPolicy
	retries atomic.Uint64
}

// RetryPolicy bounds the client's automatic retries of transient
// transport failures (connection refused/reset, a dropped keep-alive —
// anything where no HTTP response arrived). Only idempotent calls
// retry: every GET plus Query, which is a read despite its POST
// spelling. Mutations (Insert, Delete, Attach, Drop) never retry — a
// request that died mid-flight may still have been applied. Responses
// the server actually produced, error or not, never retry either: the
// server's answer is authoritative, and its own error taxonomy
// (overloaded, deadline) tells the caller what to do. Retries honor the
// call's context — its deadline keeps counting down across attempts and
// cancels a pending backoff sleep.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included);
	// values ≤ 1 disable retrying.
	MaxAttempts int
	// Backoff is the sleep before the first retry, doubling on each
	// subsequent one (a doubled sleep is capped at 500ms). 0 selects
	// 10ms.
	Backoff time.Duration
}

// SetRetryPolicy configures automatic retries. Configure before sharing
// the client across goroutines; the zero policy (the default) disables
// retrying.
func (c *Client) SetRetryPolicy(p RetryPolicy) { c.retry = p }

// RetryCount reports the total number of retry attempts the client has
// spent (first tries not included).
func (c *Client) RetryCount() uint64 { return c.retries.Load() }

// New creates a client for the server at baseURL (e.g.
// "http://localhost:8080"). The client owns a private transport (not
// http.DefaultTransport) so Close can actually release its idle
// connections without touching unrelated traffic in the process.
func New(baseURL string) *Client {
	return NewWithHTTPClient(baseURL, &http.Client{
		Transport: &http.Transport{Proxy: http.ProxyFromEnvironment},
	})
}

// NewWithHTTPClient creates a client with an explicit *http.Client
// (custom transport, timeout policy, ...).
func NewWithHTTPClient(baseURL string, hc *http.Client) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// Close releases the client's idle keep-alive connections. Call it when
// done with the client — especially before the server shuts down: a
// kept-alive connection the client dialed but never reused sits in
// StateNew on the server, and http.Server.Shutdown waits its full grace
// period for such connections. (The Client remains usable after Close;
// subsequent calls simply dial fresh connections.)
func (c *Client) Close() {
	c.hc.CloseIdleConnections()
}

// Healthz probes the server's health endpoint: nil when the server is
// up and serving, an *APIError carrying the HTTP status otherwise (503
// while the server is draining).
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// APIError is a non-2xx response decoded from the wire. Unwrap returns
// the skybench sentinel for the wire code, so errors.Is(err,
// skybench.ErrOverloaded) etc. work across the network.
type APIError struct {
	Status  int    // HTTP status
	Code    string // stable wire code ("overloaded", "unknown_collection", ...)
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("skyserved: %s (%d %s)", e.Message, e.Status, e.Code)
}

func (e *APIError) Unwrap() error { return serve.SentinelForCode(e.Code) }

// do issues one JSON round trip: method + path, optional request body,
// optional decoded response body. Calls marked idempotent retry
// transient transport failures per the client's RetryPolicy.
func (c *Client) do(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	body, _, err := c.roundTrip(ctx, method, path, "", in, idempotent)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// roundTrip sends one request (retrying as do documents) and returns the
// whole body of a 2xx response with its Content-Type. The body is always
// read to its end before the connection is given back — a body abandoned
// short of its chunked terminator or Content-Length makes net/http close
// the connection instead of keeping it alive — and closed once per
// attempt.
func (c *Client) roundTrip(ctx context.Context, method, path, accept string, in any, idempotent bool) ([]byte, string, error) {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return nil, "", err
		}
	}
	attempts := 1
	if idempotent && c.retry.MaxAttempts > 1 {
		attempts = c.retry.MaxAttempts
	}
	backoff := c.retry.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	const maxBackoff = 500 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, "", lastErr
			case <-t.C:
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		var body io.Reader
		if in != nil {
			body = bytes.NewReader(data) // fresh reader: the last attempt consumed it
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return nil, "", err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		setDeadlineHeader(req, ctx)
		resp, err := c.hc.Do(req)
		if err != nil {
			// No response arrived. Retry only while the caller's context is
			// still live — a fired deadline (or cancel) is not transient and
			// the remaining budget is gone anyway.
			lastErr = err
			if ctx.Err() != nil {
				return nil, "", err
			}
			continue
		}
		if resp.StatusCode/100 != 2 {
			err = decodeAPIError(resp)
			resp.Body.Close()
			return nil, "", err
		}
		out, err := readBody(resp)
		resp.Body.Close()
		return out, resp.Header.Get("Content-Type"), err
	}
	return nil, "", lastErr
}

// maxPresize caps the buffer reserved on a Content-Length's say-so; a
// longer body still arrives whole, by growth.
const maxPresize = 64 << 20

// readBody reads a response body to EOF, into a buffer sized by
// Content-Length when the server sent one.
func readBody(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 {
		// bytes.MinRead spare, or ReadFrom grows the buffer once more just
		// to see the EOF.
		buf.Grow(int(min(n, maxPresize)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// setDeadlineHeader forwards the context deadline, when one is set, as
// the wire deadline header (rounded up to a whole millisecond so a
// tight-but-live deadline never truncates to the rejected 0).
func setDeadlineHeader(req *http.Request, ctx context.Context) {
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	ms := time.Until(dl).Milliseconds() + 1
	if ms < 1 {
		ms = 1
	}
	req.Header.Set(serve.DeadlineHeader, strconv.FormatInt(ms, 10))
}

// decodeAPIError turns a non-2xx response into an *APIError.
func decodeAPIError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var eb serve.ErrorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error.Code != "" {
		return &APIError{Status: resp.StatusCode, Code: eb.Error.Code, Message: eb.Error.Message}
	}
	return &APIError{Status: resp.StatusCode, Code: "internal", Message: strings.TrimSpace(string(data))}
}

// Query runs one query against the named collection. A nil request runs
// the default query (hybrid skyline, minimize every dimension).
func (c *Client) Query(ctx context.Context, collection string, req *serve.QueryRequest) (*serve.QueryResponse, error) {
	if req == nil {
		req = &serve.QueryRequest{}
	}
	body, ctype, err := c.roundTrip(ctx, http.MethodPost, c.colPath(collection)+"/query", queryAccept, req, true)
	if err != nil {
		return nil, err
	}
	// Decode by what came back, not by what was asked for: a server from
	// before the frame ignores Accept and answers JSON.
	if serve.IsFrameType(ctype) {
		return serve.DecodeQueryFrame(body)
	}
	var out serve.QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// queryAccept is the Accept header of every Query: the binary result
// frame when the server has it, JSON otherwise.
const queryAccept = serve.FrameContentType + ", application/json"

// Insert appends a batch of points to a stream-backed collection and
// returns their assigned IDs.
func (c *Client) Insert(ctx context.Context, collection string, points [][]float64) ([]uint64, error) {
	var out serve.InsertResponse
	err := c.do(ctx, http.MethodPost, c.colPath(collection)+"/points", &serve.InsertRequest{Points: points}, &out, false)
	if err != nil {
		return nil, err
	}
	return out.IDs, nil
}

// Delete removes one point by stream ID.
func (c *Client) Delete(ctx context.Context, collection string, id uint64) error {
	path := fmt.Sprintf("%s/points/%d", c.colPath(collection), id)
	return c.do(ctx, http.MethodDelete, path, nil, nil, false)
}

// Attach creates a collection on the server (PUT /v1/collections/{name}).
func (c *Client) Attach(ctx context.Context, collection string, req *serve.AttachRequest) (*serve.CollectionInfo, error) {
	var out serve.CollectionInfo
	if err := c.do(ctx, http.MethodPut, c.colPath(collection), req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Drop detaches a collection.
func (c *Client) Drop(ctx context.Context, collection string) error {
	return c.do(ctx, http.MethodDelete, c.colPath(collection), nil, nil, false)
}

// Info describes one collection.
func (c *Client) Info(ctx context.Context, collection string) (*serve.CollectionInfo, error) {
	var out serve.CollectionInfo
	if err := c.do(ctx, http.MethodGet, c.colPath(collection), nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// List enumerates the server's collections, sorted by name.
func (c *Client) List(ctx context.Context) ([]serve.CollectionInfo, error) {
	var out serve.CollectionList
	if err := c.do(ctx, http.MethodGet, "/v1/collections", nil, &out, true); err != nil {
		return nil, err
	}
	return out.Collections, nil
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", decodeAPIError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Subscription is a live delta feed. Read events with Next until it
// fails; Close releases the connection. The server disconnects a
// subscription whose events aren't consumed fast enough (its queue
// overflowed) — Next then returns an error and the caller re-syncs by
// reconnecting and querying current membership.
type Subscription struct {
	body io.ReadCloser
	dec  *json.Decoder
}

// Subscribe opens the NDJSON delta feed of a stream-backed collection.
// Cancel ctx (or Close the subscription) to end it.
func (c *Client) Subscribe(ctx context.Context, collection string) (*Subscription, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+c.colPath(collection)+"/deltas", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, decodeAPIError(resp)
	}
	return &Subscription{
		body: resp.Body,
		dec:  json.NewDecoder(bufio.NewReader(resp.Body)),
	}, nil
}

// Next blocks for the next delta event. io.EOF (or a wrapped transport
// error) means the server ended the subscription.
func (s *Subscription) Next() (*serve.DeltaEvent, error) {
	var ev serve.DeltaEvent
	if err := s.dec.Decode(&ev); err != nil {
		return nil, err
	}
	return &ev, nil
}

// Close ends the subscription.
func (s *Subscription) Close() error { return s.body.Close() }

// colPath builds the URL path for a collection, escaping the name.
func (c *Client) colPath(collection string) string {
	return "/v1/collections/" + url.PathEscape(collection)
}
