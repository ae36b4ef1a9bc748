package rpc

import (
	"encoding/json"
	"fmt"
	"sync"
)

// HandlerFunc serves one JSON-RPC method: it decodes its own params and
// returns either a result value (marshalled by the server) or an *Error.
type HandlerFunc func(params json.RawMessage) (any, *Error)

// Mux routes JSON-RPC method names to handlers. The chain bridge registers
// the hammer.* methods on one; any other method table is served by the same
// Server through NewMuxServer, so a subsystem can expose a service over the
// wire without touching the transport layer, and a client can stream calls
// to it with Conn.CallBatch.
type Mux struct {
	mu       sync.RWMutex
	handlers map[string]HandlerFunc
}

// NewMux returns an empty method table.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]HandlerFunc)}
}

// Handle registers h for method. Registering a method twice panics — two
// subsystems claiming one name is a programming error, not a runtime
// condition.
func (m *Mux) Handle(method string, h HandlerFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler for method %q", method))
	}
	m.handlers[method] = h
}

// dispatch validates the envelope and invokes the method's handler.
func (m *Mux) dispatch(req *Request) (any, *Error) {
	if req.JSONRPC != "" && req.JSONRPC != Version {
		return nil, &Error{Code: CodeInvalidRequest, Message: "unsupported jsonrpc version " + req.JSONRPC}
	}
	m.mu.RLock()
	h := m.handlers[req.Method]
	m.mu.RUnlock()
	if h == nil {
		return nil, &Error{Code: CodeMethodNotFound, Message: "unknown method " + req.Method}
	}
	return h(req.Params)
}

// DecodeParams unmarshals params into v, mapping failures onto the
// standard invalid-params error so handlers stay one-liners.
func DecodeParams(params json.RawMessage, v any) *Error {
	if len(params) == 0 {
		return &Error{Code: CodeInvalidParams, Message: "missing params"}
	}
	if err := json.Unmarshal(params, v); err != nil {
		return &Error{Code: CodeInvalidParams, Message: err.Error()}
	}
	return nil
}
