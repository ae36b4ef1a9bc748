package rpc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countParams is the payload of the test count.add method.
type countParams struct {
	Worker string `json:"worker"`
	N      int64  `json:"n"`
}

// newCountMux serves count.add, accumulating per-worker totals.
func newCountMux() (*Mux, *sync.Map) {
	totals := &sync.Map{}
	mux := NewMux()
	mux.Handle("count.add", func(params json.RawMessage) (any, *Error) {
		var p countParams
		if e := DecodeParams(params, &p); e != nil {
			return nil, e
		}
		v, _ := totals.LoadOrStore(p.Worker, new(int64))
		atomic.AddInt64(v.(*int64), p.N)
		return map[string]bool{"ok": true}, nil
	})
	return mux, totals
}

// TestConcurrentClientsStreamingBatches drives one server with 8 clients,
// each streaming 50 batched calls — the load-plane report shape — under the
// race detector.
func TestConcurrentClientsStreamingBatches(t *testing.T) {
	mux, totals := newCountMux()
	srv := NewMuxServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		clients       = 8
		rounds        = 50
		callsPerBatch = 4
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn := NewConn("http://"+addr, 5*time.Second, DefaultRetry())
			defer conn.Close()
			name := fmt.Sprintf("w%d", w)
			for r := 0; r < rounds; r++ {
				calls := make([]*BatchCall, callsPerBatch)
				for i := range calls {
					calls[i] = &BatchCall{Method: "count.add", Params: countParams{Worker: name, N: 1}}
				}
				if err := conn.CallBatch(context.Background(), calls); err != nil {
					errs <- err
					return
				}
				for _, c := range calls {
					if c.Err != nil {
						errs <- c.Err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < clients; w++ {
		v, ok := totals.Load(fmt.Sprintf("w%d", w))
		if !ok {
			t.Fatalf("worker %d never reported", w)
		}
		if got := atomic.LoadInt64(v.(*int64)); got != rounds*callsPerBatch {
			t.Fatalf("worker %d total %d, want %d", w, got, rounds*callsPerBatch)
		}
	}
}

// TestBatchMixedResults checks a batch whose calls succeed and fail
// independently: per-call errors land on the right BatchCall.
func TestBatchMixedResults(t *testing.T) {
	mux, _ := newCountMux()
	srv := NewMuxServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := NewConn("http://"+addr, time.Second, NoRetry())
	defer conn.Close()

	var okRes map[string]bool
	calls := []*BatchCall{
		{Method: "count.add", Params: countParams{Worker: "a", N: 1}, Result: &okRes},
		{Method: "no.such"},
		{Method: "count.add"}, // missing params
	}
	if err := conn.CallBatch(context.Background(), calls); err != nil {
		t.Fatal(err)
	}
	if calls[0].Err != nil || !okRes["ok"] {
		t.Fatalf("first call: err=%v res=%v", calls[0].Err, okRes)
	}
	rpcErr, ok := calls[1].Err.(*Error)
	if !ok || rpcErr.Code != CodeMethodNotFound {
		t.Fatalf("second call should be method-not-found, got %v", calls[1].Err)
	}
	rpcErr, ok = calls[2].Err.(*Error)
	if !ok || rpcErr.Code != CodeInvalidParams {
		t.Fatalf("third call should be invalid-params, got %v", calls[2].Err)
	}
	// An empty batch is a no-op, not a wire exchange.
	if err := conn.CallBatch(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

// TestKeepAliveReusesConnections asserts the Conn transport pools its TCP
// connection across sequential calls instead of dialing per request.
func TestKeepAliveReusesConnections(t *testing.T) {
	mux, _ := newCountMux()
	ts := httptest.NewUnstartedServer(NewMuxServer(mux))
	var conns atomic.Int64
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	conn := NewConn(ts.URL, time.Second, NoRetry())
	defer conn.Close()
	for i := 0; i < 50; i++ {
		if err := conn.Call(context.Background(), "count.add", countParams{Worker: "k", N: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got > 2 {
		t.Fatalf("50 sequential calls opened %d TCP connections; keep-alive should pool them", got)
	}
	if got := conn.Redials(); got != 0 {
		t.Fatalf("sequential calls should not retry, saw %d redials", got)
	}
}

// TestRetryTransientFailures drops the first connections at the TCP level
// and asserts the Conn retries under its bounded backoff instead of failing
// the call.
func TestRetryTransientFailures(t *testing.T) {
	mux, totals := newCountMux()
	var served atomic.Int64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= 2 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			c, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			c.Close() // slam the connection: the client sees a transport error
			return
		}
		NewMuxServer(mux).ServeHTTP(w, r)
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	conn := NewConn(ts.URL, time.Second, RetryPolicy{Attempts: 4, Backoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond})
	defer conn.Close()
	if err := conn.Call(context.Background(), "count.add", countParams{Worker: "r", N: 7}, nil); err != nil {
		t.Fatalf("call should survive two dropped connections: %v", err)
	}
	if got := conn.Redials(); got != 2 {
		t.Fatalf("expected 2 redials, got %d", got)
	}
	v, _ := totals.Load("r")
	if v == nil || atomic.LoadInt64(v.(*int64)) != 7 {
		t.Fatal("handler never saw the retried call")
	}
}

// TestRetryIsBounded asserts a dead endpoint fails after the configured
// attempts rather than retrying forever.
func TestRetryIsBounded(t *testing.T) {
	conn := NewConn("http://127.0.0.1:1", 200*time.Millisecond,
		RetryPolicy{Attempts: 2, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	defer conn.Close()
	start := time.Now()
	err := conn.Call(context.Background(), "count.add", countParams{Worker: "x", N: 1}, nil)
	if err == nil {
		t.Fatal("dead endpoint should fail")
	}
	if got := conn.Redials(); got != 2 {
		t.Fatalf("expected exactly 2 redials, got %d", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded retry took %v", elapsed)
	}
}

// TestRetryHonorsContext: cancellation interrupts the backoff loop.
func TestRetryHonorsContext(t *testing.T) {
	conn := NewConn("http://127.0.0.1:1", 200*time.Millisecond,
		RetryPolicy{Attempts: 1 << 20, Backoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond})
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := conn.Call(ctx, "count.add", nil, nil); err == nil {
		t.Fatal("cancelled call should fail")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("context should bound the retry loop, took %v", elapsed)
	}
}

// TestServerBatchEnvelope exercises the server's batch path directly,
// including the empty-batch and malformed-array errors.
func TestServerBatchEnvelope(t *testing.T) {
	mux, _ := newCountMux()
	ts := httptest.NewServer(NewMuxServer(mux))
	defer ts.Close()

	post := func(body string) string {
		t.Helper()
		resp, err := http.Post(ts.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	out := post(`[{"jsonrpc":"2.0","id":1,"method":"count.add","params":{"worker":"b","n":2}},
	              {"jsonrpc":"2.0","id":2,"method":"no.such"}]`)
	var resps []Response
	if err := json.Unmarshal([]byte(out), &resps); err != nil {
		t.Fatalf("batch response not an array: %v in %q", err, out)
	}
	if len(resps) != 2 || resps[0].Error != nil || resps[1].Error == nil {
		t.Fatalf("unexpected batch responses: %+v", resps)
	}

	var single Response
	if err := json.Unmarshal([]byte(post(`[]`)), &single); err != nil || single.Error == nil || single.Error.Code != CodeInvalidRequest {
		t.Fatalf("empty batch should be invalid-request: %v %+v", err, single)
	}
	if err := json.Unmarshal([]byte(post(`[{]`)), &single); err != nil || single.Error == nil || single.Error.Code != CodeParse {
		t.Fatalf("malformed batch should be a parse error: %v %+v", err, single)
	}
}
