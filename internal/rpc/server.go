package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"

	"hammer/internal/chain"
)

// Server serves a Mux over HTTP: one JSON-RPC request — or a JSON-RPC 2.0
// batch (an array of requests) — per POST body.
type Server struct {
	mux *Mux

	httpServer *http.Server
	listener   net.Listener
	mu         sync.Mutex
	wg         sync.WaitGroup
}

// ServerOption customises a Server.
type ServerOption func(*serverConfig)

type serverConfig struct {
	do func(func())
}

// WithSerializer routes every chain call through do — required when an
// eventsim.Realtime is concurrently advancing the chain.
func WithSerializer(do func(func())) ServerOption {
	return func(c *serverConfig) { c.do = do }
}

// NewServer builds a bridge server for bc: a Mux carrying the hammer.*
// methods over the chain.
func NewServer(bc chain.Blockchain, opts ...ServerOption) *Server {
	cfg := &serverConfig{do: func(fn func()) { fn() }}
	for _, o := range opts {
		o(cfg)
	}
	return NewMuxServer(ChainMux(bc, cfg.do))
}

// NewMuxServer serves an arbitrary method table — the entry point for
// services other than the chain bridge.
func NewMuxServer(mux *Mux) *Server {
	return &Server{mux: mux}
}

// maxBody bounds one POST body; a CallBatch of thousands of small calls fits
// with orders of magnitude to spare.
const maxBody = 8 << 20

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		http.Error(w, "read error", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if isBatch(body) {
		var reqs []Request
		if err := json.Unmarshal(body, &reqs); err != nil {
			enc.Encode(&Response{JSONRPC: Version, Error: &Error{Code: CodeParse, Message: err.Error()}})
			return
		}
		if len(reqs) == 0 {
			enc.Encode(&Response{JSONRPC: Version, Error: &Error{Code: CodeInvalidRequest, Message: "empty batch"}})
			return
		}
		resps := make([]Response, len(reqs))
		for i := range reqs {
			resps[i] = s.serveOne(&reqs[i])
		}
		enc.Encode(resps)
		return
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		enc.Encode(&Response{JSONRPC: Version, Error: &Error{Code: CodeParse, Message: err.Error()}})
		return
	}
	enc.Encode(s.serveOne(&req))
}

// isBatch reports whether the body is a JSON array (a JSON-RPC 2.0 batch).
func isBatch(body []byte) bool {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	return len(trimmed) > 0 && trimmed[0] == '['
}

func (s *Server) serveOne(req *Request) Response {
	resp := Response{JSONRPC: Version, ID: req.ID}
	result, rpcErr := s.mux.dispatch(req)
	if rpcErr != nil {
		resp.Error = rpcErr
		return resp
	}
	raw, err := json.Marshal(result)
	if err != nil {
		resp.Error = &Error{Code: CodeInternal, Message: err.Error()}
		return resp
	}
	resp.Result = raw
	return resp
}

// ChainMux builds the hammer.* method table over bc, serialising every
// chain call through do.
func ChainMux(bc chain.Blockchain, do func(func())) *Mux {
	if do == nil {
		do = func(fn func()) { fn() }
	}
	mux := NewMux()
	mux.Handle(MethodName, func(json.RawMessage) (any, *Error) {
		var name string
		do(func() { name = bc.Name() })
		return NameResult{Name: name}, nil
	})
	mux.Handle(MethodShards, func(json.RawMessage) (any, *Error) {
		var n int
		do(func() { n = bc.Shards() })
		return ShardsResult{Shards: n}, nil
	})
	mux.Handle(MethodPending, func(json.RawMessage) (any, *Error) {
		var n int
		do(func() { n = bc.PendingTxs() })
		return PendingResult{Pending: n}, nil
	})
	mux.Handle(MethodSubmit, func(params json.RawMessage) (any, *Error) {
		var p SubmitParams
		if e := DecodeParams(params, &p); e != nil {
			return nil, e
		}
		tx := &chain.Transaction{}
		if err := json.Unmarshal(p.Tx, tx); err != nil {
			return nil, &Error{Code: CodeInvalidParams, Message: "bad transaction: " + err.Error()}
		}
		var (
			id  chain.TxID
			err error
		)
		do(func() { id, err = bc.Submit(tx) })
		if err != nil {
			code := CodeInternal
			switch {
			case errors.Is(err, chain.ErrOverloaded):
				code = CodeOverloaded
			case errors.Is(err, chain.ErrStopped):
				code = CodeStopped
			}
			return nil, &Error{Code: code, Message: err.Error()}
		}
		return SubmitResult{TxID: id.String()}, nil
	})
	mux.Handle(MethodHeight, func(params json.RawMessage) (any, *Error) {
		var p HeightParams
		if len(params) > 0 {
			if err := json.Unmarshal(params, &p); err != nil {
				return nil, &Error{Code: CodeInvalidParams, Message: err.Error()}
			}
		}
		var h uint64
		do(func() { h = bc.Height(p.Shard) })
		return HeightResult{Height: h}, nil
	})
	mux.Handle(MethodBlockAt, func(params json.RawMessage) (any, *Error) {
		var p BlockAtParams
		if e := DecodeParams(params, &p); e != nil {
			return nil, e
		}
		var (
			blk *chain.Block
			ok  bool
		)
		do(func() { blk, ok = bc.BlockAt(p.Shard, p.Height) })
		if !ok {
			return nil, &Error{Code: CodeInvalidParams,
				Message: fmt.Sprintf("no block at shard %d height %d", p.Shard, p.Height)}
		}
		return blk, nil
	})
	return mux
}

// Listen starts serving on addr (e.g. "127.0.0.1:0") and returns the bound
// address. Close shuts the server down.
func (s *Server) Listen(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener != nil {
		return "", errors.New("rpc: server already listening")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s.listener = ln
	s.httpServer = &http.Server{Handler: s}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// ErrServerClosed is the normal shutdown signal.
		if err := s.httpServer.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The listener failed; Close will surface the state.
			return
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the HTTP server and waits for the serve loop to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.httpServer
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Close()
	s.wg.Wait()
	return err
}
