package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// RetryPolicy bounds how a Conn handles transient transport failures
// (connection refused while a peer restarts, a dropped socket, a timeout).
// Attempts counts tries beyond the first; Backoff doubles per attempt up to
// MaxBackoff. JSON-RPC-level errors are never retried — the request reached
// the peer and was answered.
type RetryPolicy struct {
	Attempts   int
	Backoff    time.Duration
	MaxBackoff time.Duration
}

// DefaultRetry suits control-plane traffic: three retries, 50 ms → 400 ms.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{Attempts: 3, Backoff: 50 * time.Millisecond, MaxBackoff: 400 * time.Millisecond}
}

// NoRetry fails on the first transport error.
func NoRetry() RetryPolicy { return RetryPolicy{} }

// Conn is one JSON-RPC endpoint: a URL plus a keep-alive HTTP transport.
// Every Conn owns its own http.Transport with idle-connection pooling, so a
// client streaming thousands of CallBatch requests reuses one TCP
// connection instead of dialing per call.
type Conn struct {
	url    string
	http   *http.Client
	retry  RetryPolicy
	nextID atomic.Int64
	// redials counts HTTP round-trips that were retried after a transport
	// failure — observable in tests and client logs.
	redials atomic.Int64
}

// NewConn builds a connection to url (e.g. "http://127.0.0.1:8545").
// timeout bounds one HTTP round trip; zero uses 10 s.
func NewConn(url string, timeout time.Duration, retry RetryPolicy) *Conn {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	transport := &http.Transport{
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Conn{
		url:   url,
		http:  &http.Client{Timeout: timeout, Transport: transport},
		retry: retry,
	}
}

// URL reports the endpoint.
func (c *Conn) URL() string { return c.url }

// Redials reports how many transport-level retries the connection has
// performed.
func (c *Conn) Redials() int64 { return c.redials.Load() }

// Close releases pooled idle connections.
func (c *Conn) Close() {
	if t, ok := c.http.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// post sends body, retrying transport failures under the retry policy. The
// caller's context bounds the whole exchange including backoff sleeps.
func (c *Conn) post(ctx context.Context, body []byte) ([]byte, error) {
	backoff := c.retry.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("rpc: %w (last transport error: %v)", err, lastErr)
			}
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("rpc: build request: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		httpResp, err := c.http.Do(req)
		if err == nil {
			data, readErr := readBody(httpResp)
			if readErr == nil {
				return data, nil
			}
			err = readErr
		}
		lastErr = err
		if attempt >= c.retry.Attempts || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("rpc: post %s after %d attempt(s): %w", c.url, attempt+1, err)
		}
		c.redials.Add(1)
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("rpc: %w (last transport error: %v)", ctx.Err(), lastErr)
		case <-time.After(backoff):
		}
		if c.retry.MaxBackoff > 0 && backoff*2 > c.retry.MaxBackoff {
			backoff = c.retry.MaxBackoff
		} else {
			backoff *= 2
		}
	}
}

func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Call performs one JSON-RPC exchange. A nil result discards the response
// payload.
func (c *Conn) Call(ctx context.Context, method string, params any, result any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	req := Request{JSONRPC: Version, ID: c.nextID.Add(1), Method: method}
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			return fmt.Errorf("rpc: marshal params: %w", err)
		}
		req.Params = raw
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return fmt.Errorf("rpc: marshal request: %w", err)
	}
	data, err := c.post(ctx, body)
	if err != nil {
		return fmt.Errorf("rpc: %s: %w", method, err)
	}
	var resp Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("rpc: decode response for %s: %w", method, err)
	}
	return decodeResult(&resp, method, result)
}

// BatchCall is one entry of a JSON-RPC 2.0 batch: the method and params to
// send, and where to decode the result. After CallBatch returns, Err holds
// the per-call outcome.
type BatchCall struct {
	Method string
	Params any
	Result any
	Err    error
}

// CallBatch sends every call in one HTTP POST as a JSON-RPC 2.0 batch array
// — the request-batching path metric-window reports ride on. Responses are
// matched to calls by ID, so server-side ordering is irrelevant. The
// returned error covers transport and envelope failures; per-call RPC errors
// land in each BatchCall.Err.
func (c *Conn) CallBatch(ctx context.Context, calls []*BatchCall) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(calls) == 0 {
		return nil
	}
	reqs := make([]Request, len(calls))
	byID := make(map[int64]*BatchCall, len(calls))
	for i, call := range calls {
		id := c.nextID.Add(1)
		reqs[i] = Request{JSONRPC: Version, ID: id, Method: call.Method}
		if call.Params != nil {
			raw, err := json.Marshal(call.Params)
			if err != nil {
				return fmt.Errorf("rpc: marshal params for %s: %w", call.Method, err)
			}
			reqs[i].Params = raw
		}
		byID[id] = call
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		return fmt.Errorf("rpc: marshal batch: %w", err)
	}
	data, err := c.post(ctx, body)
	if err != nil {
		return fmt.Errorf("rpc: batch of %d: %w", len(calls), err)
	}
	var resps []Response
	if err := json.Unmarshal(data, &resps); err != nil {
		return fmt.Errorf("rpc: decode batch response: %w", err)
	}
	if len(resps) != len(calls) {
		return fmt.Errorf("rpc: batch of %d answered with %d responses", len(calls), len(resps))
	}
	for i := range resps {
		call := byID[resps[i].ID]
		if call == nil {
			return fmt.Errorf("rpc: batch response with unknown id %d", resps[i].ID)
		}
		call.Err = decodeResult(&resps[i], call.Method, call.Result)
	}
	return nil
}

// decodeResult maps a response envelope onto a Go error and result value.
func decodeResult(resp *Response, method string, result any) error {
	if resp.Error != nil {
		return wireError(resp.Error)
	}
	if result != nil {
		if err := json.Unmarshal(resp.Result, result); err != nil {
			return fmt.Errorf("rpc: decode result for %s: %w", method, err)
		}
	}
	return nil
}
