// Package runtime implements the transactional serverless-function
// application substrate TROD targets (paper §3.1): a registry of request
// handlers, workflows of handler→handler invocations (in-process RPCs), a
// propagated request ID, explicit transaction blocks, and interposition
// points for the TROD tracer, replay engine, and retroactive-programming
// scheduler.
//
// The runtime enforces the TROD design principles structurally:
//
//	P1 — all shared state lives in the attached database;
//	P2 — handlers touch that state only through Ctx.Txn blocks;
//	P3 — handlers receive only their arguments and database state, and the
//	     runtime supplies a logical clock instead of wall time, so a handler
//	     is deterministic unless it goes out of its way not to be.
package runtime

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/value"
)

// Args carries named handler arguments. Values must be db-representable
// (nil, bool, integers, floats, string, []byte).
type Args map[string]any

// String returns the named argument as a string ("" when absent).
func (a Args) String(key string) string {
	if v, ok := a[key].(string); ok {
		return v
	}
	return ""
}

// Int returns the named argument as an int64 (0 when absent).
func (a Args) Int(key string) int64 {
	switch v := a[key].(type) {
	case int:
		return int64(v)
	case int64:
		return v
	case float64:
		return int64(v)
	}
	return 0
}

// Bool returns the named argument as a bool.
func (a Args) Bool(key string) bool {
	if v, ok := a[key].(bool); ok {
		return v
	}
	return false
}

// Clone returns a shallow copy (argument values are immutable scalars).
func (a Args) Clone() Args {
	cp := make(Args, len(a))
	for k, v := range a {
		cp[k] = v
	}
	return cp
}

// sortedKeys helps render args deterministically.
func (a Args) sortedKeys() []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Handler is a request handler: deterministic business logic over its
// arguments and transactional database access.
type Handler func(c *Ctx, args Args) (any, error)

// RequestInfo describes one top-level request for observers.
type RequestInfo struct {
	ReqID        string
	Handler      string
	Args         Args
	Start        time.Time
	End          time.Time
	LogicalStart uint64
	Err          error
	Result       any
}

// InvocationInfo describes one handler invocation (top-level or RPC).
type InvocationInfo struct {
	ReqID        string
	InvocationID string
	Parent       string // parent invocation ID, "" for the entry handler
	Handler      string
	Logical      uint64
}

// ExternalCall describes an external-service call mocked by the runtime
// (assumed idempotent per the paper's simplifying assumptions, §3.1).
type ExternalCall struct {
	ReqID          string
	InvocationID   string
	Service        string
	Payload        string
	IdempotencyKey string
	Logical        uint64
}

// Observer receives runtime events; the TROD tracer implements it.
type Observer interface {
	RequestStart(RequestInfo)
	RequestEnd(RequestInfo)
	Invocation(InvocationInfo)
	External(ExternalCall)
}

// TxnInterceptor interposes on every transaction block. The TROD replay
// engine uses Before to restore dependent state ("breakpoints before each
// transaction", §3.5); the retroactive-programming scheduler uses it to
// serialise transactions into a chosen interleaving (§3.6).
type TxnInterceptor interface {
	// Before runs before the transaction block begins. Returning an error
	// aborts the handler.
	Before(c *Ctx, fnLabel string) error
	// After runs after the block's commit attempt, with its error.
	After(c *Ctx, fnLabel string, err error)
}

// App is the application runtime: a handler registry bound to a database.
type App struct {
	db        *db.DB
	mu        sync.RWMutex
	handlers  map[string]Handler
	observer  Observer
	intercept TxnInterceptor

	reqCounter atomic.Uint64
	logical    uint64 // logical event clock (deterministic "timestamp")

	// externalResults holds the results of external calls per request, so a
	// repeated call returns the first result. The entries of a request that
	// Invoke served are dropped when it ends: its ID came from the allocator
	// and is never served again, and the provenance log (trod_externals)
	// keeps what replay needs. An ID given to InvokeWithReqID may be served
	// again (replay, retro), so its entries stay and re-serving it does not
	// repeat its external calls.
	externalMu      sync.Mutex
	externalResults map[string]map[string]string // reqID -> idempotency key -> result
}

// New creates an application runtime over a database.
func New(database *db.DB) *App {
	return &App{
		db:              database,
		handlers:        make(map[string]Handler),
		externalResults: make(map[string]map[string]string),
	}
}

// DB returns the attached database.
func (app *App) DB() *db.DB { return app.db }

// Register installs a handler under name. Re-registering replaces the
// handler — that is exactly what retroactive programming does with modified
// code (§3.6).
func (app *App) Register(name string, h Handler) {
	app.mu.Lock()
	defer app.mu.Unlock()
	app.handlers[name] = h
}

// Handlers lists registered handler names, sorted.
func (app *App) Handlers() []string {
	app.mu.RLock()
	defer app.mu.RUnlock()
	out := make([]string, 0, len(app.handlers))
	for n := range app.handlers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetObserver installs the tracing observer. Must be set before serving.
func (app *App) SetObserver(o Observer) { app.observer = o }

// SetTxnInterceptor installs the transaction interceptor (replay/retro).
func (app *App) SetTxnInterceptor(ti TxnInterceptor) { app.intercept = ti }

// NextLogical advances and returns the logical clock. Every traced event
// gets a unique, totally ordered logical timestamp; using a logical clock
// keeps replays deterministic (P3).
func (app *App) NextLogical() uint64 { return atomic.AddUint64(&app.logical, 1) }

// NewReqID allocates the next request ID ("R1", "R2", ...).
func (app *App) NewReqID() string {
	n := app.reqCounter.Add(1)
	return fmt.Sprintf("R%d", n)
}

// StartRemote registers an externally driven request — one arriving over
// the network front end rather than through Invoke — under a fresh request
// ID from the same allocator in-process requests use. The observer sees the
// same RequestStart/Invocation events, and the returned finish function
// (which must be called exactly once when the request completes) delivers
// RequestEnd; provenance therefore records remote executions exactly like
// local ones, with interleaved, totally ordered request IDs.
func (app *App) StartRemote(handler string, args Args) (string, func(result any, err error)) {
	reqID := app.NewReqID()
	info := RequestInfo{
		ReqID:        reqID,
		Handler:      handler,
		Args:         args.Clone(),
		Start:        time.Now(),
		LogicalStart: app.NextLogical(),
	}
	if app.observer != nil {
		app.observer.RequestStart(info)
		app.observer.Invocation(InvocationInfo{
			ReqID: reqID, InvocationID: reqID + "/0", Handler: handler, Logical: info.LogicalStart,
		})
	}
	return reqID, func(result any, err error) {
		info.End = time.Now()
		info.Err = err
		info.Result = result
		if app.observer != nil {
			app.observer.RequestEnd(info)
		}
	}
}

// Ctx is the per-invocation handler context.
type Ctx struct {
	app          *App
	ReqID        string
	HandlerName  string
	InvocationID string
	parentInv    string
	txnSeq       uint64 // per-invocation transaction counter
	callSeq      uint64 // per-invocation RPC counter
}

// App returns the runtime (used by TROD layers; handlers should not).
func (c *Ctx) App() *App { return c.app }

// ErrUnknownHandler reports an invocation of an unregistered handler.
var ErrUnknownHandler = errors.New("runtime: unknown handler")

// Invoke serves a new top-level request: it assigns a fresh request ID and
// runs the named handler.
func (app *App) Invoke(handler string, args Args) (any, error) {
	reqID := app.NewReqID()
	defer app.forgetExternals(reqID)
	return app.invoke(reqID, handler, args)
}

// InvokeWithReqID serves a request under an explicit request ID. Replay and
// retroactive programming use this to re-serve past requests under their
// original IDs. An ID in the allocator's own "R<n>" form reserves n, so a
// later Invoke never reuses it.
func (app *App) InvokeWithReqID(reqID, handler string, args Args) (any, error) {
	app.reserveReqID(reqID)
	return app.invoke(reqID, handler, args)
}

// reserveReqID advances the request-ID allocator past reqID when reqID has
// the "R<n>" form NewReqID produces.
func (app *App) reserveReqID(reqID string) {
	if len(reqID) < 2 || reqID[0] != 'R' {
		return
	}
	n, err := strconv.ParseUint(reqID[1:], 10, 64)
	if err != nil {
		return
	}
	for {
		cur := app.reqCounter.Load()
		if cur >= n || app.reqCounter.CompareAndSwap(cur, n) {
			return
		}
	}
}

func (app *App) invoke(reqID, handler string, args Args) (any, error) {
	app.mu.RLock()
	h, ok := app.handlers[handler]
	app.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHandler, handler)
	}
	info := RequestInfo{
		ReqID:        reqID,
		Handler:      handler,
		Args:         args.Clone(),
		Start:        time.Now(),
		LogicalStart: app.NextLogical(),
	}
	if app.observer != nil {
		app.observer.RequestStart(info)
	}
	c := &Ctx{app: app, ReqID: reqID, HandlerName: handler, InvocationID: reqID + "/0"}
	if app.observer != nil {
		app.observer.Invocation(InvocationInfo{
			ReqID: reqID, InvocationID: c.InvocationID, Handler: handler, Logical: info.LogicalStart,
		})
	}
	result, err := h(c, args)
	info.End = time.Now()
	info.Err = err
	info.Result = result
	if app.observer != nil {
		app.observer.RequestEnd(info)
	}
	return result, err
}

// Call invokes another handler as part of the same request (an RPC in a
// microservice deployment; in-process here). The request ID propagates —
// the paper's workflow-of-handlers model.
func (c *Ctx) Call(handler string, args Args) (any, error) {
	c.app.mu.RLock()
	h, ok := c.app.handlers[handler]
	c.app.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHandler, handler)
	}
	seq := atomic.AddUint64(&c.callSeq, 1)
	child := &Ctx{
		app:          c.app,
		ReqID:        c.ReqID,
		HandlerName:  handler,
		InvocationID: fmt.Sprintf("%s.%d", c.InvocationID, seq),
		parentInv:    c.InvocationID,
	}
	if c.app.observer != nil {
		c.app.observer.Invocation(InvocationInfo{
			ReqID:        c.ReqID,
			InvocationID: child.InvocationID,
			Parent:       c.InvocationID,
			Handler:      handler,
			Logical:      c.app.NextLogical(),
		})
	}
	return h(child, args)
}

// Txn runs fn as one ACID transaction labelled with the calling function's
// role (the paper's Metadata column, e.g. "isSubscribed"). Serialization
// conflicts retry the whole block. This is the only sanctioned way for
// handlers to touch shared state (P2).
func (c *Ctx) Txn(fnLabel string, fn func(tx *db.Tx) error) error {
	if c.app.intercept != nil {
		if err := c.app.intercept.Before(c, fnLabel); err != nil {
			return err
		}
	}
	meta := db.TxMeta{
		ReqID:    c.ReqID,
		Handler:  c.HandlerName,
		Func:     fnLabel,
		Workflow: c.InvocationID,
	}
	err := c.app.db.RunTx(meta, fn)
	if c.app.intercept != nil {
		c.app.intercept.After(c, fnLabel, err)
	}
	atomic.AddUint64(&c.txnSeq, 1)
	return err
}

// Query runs a single read statement as its own transaction.
func (c *Ctx) Query(fnLabel, query string, args ...any) (*db.Rows, error) {
	var rows *db.Rows
	err := c.Txn(fnLabel, func(tx *db.Tx) error {
		var err error
		rows, err = tx.Query(query, args...)
		return err
	})
	return rows, err
}

// Exec runs a single write statement as its own transaction.
func (c *Ctx) Exec(fnLabel, query string, args ...any) (*db.Rows, error) {
	var rows *db.Rows
	err := c.Txn(fnLabel, func(tx *db.Tx) error {
		var err error
		rows, err = tx.Exec(query, args...)
		return err
	})
	return rows, err
}

// External performs a (mocked) external-service call. Calls are idempotent:
// repeating the same call for the same request returns the recorded result
// without re-executing the side effect — the paper's simplifying assumption
// for replays (§3.1).
func (c *Ctx) External(service, payload string) string {
	key := fmt.Sprintf("%s|%s|%s", c.ReqID, c.InvocationID, service)
	c.app.externalMu.Lock()
	defer c.app.externalMu.Unlock()
	byKey := c.app.externalResults[c.ReqID]
	if res, ok := byKey[key]; ok {
		return res
	}
	res := fmt.Sprintf("ok:%s(%s)", service, payload)
	if byKey == nil {
		byKey = make(map[string]string)
		c.app.externalResults[c.ReqID] = byKey
	}
	byKey[key] = res
	if c.app.observer != nil {
		c.app.observer.External(ExternalCall{
			ReqID:          c.ReqID,
			InvocationID:   c.InvocationID,
			Service:        service,
			Payload:        payload,
			IdempotencyKey: key,
			Logical:        c.app.NextLogical(),
		})
	}
	return res
}

// forgetExternals drops the recorded external results of a request that
// has ended and will not be served again.
func (app *App) forgetExternals(reqID string) {
	app.externalMu.Lock()
	delete(app.externalResults, reqID)
	app.externalMu.Unlock()
}

// ArgsToRow renders args into (name, value) pairs for provenance storage.
func ArgsToRow(a Args) (string, error) {
	parts := make([]string, 0, len(a))
	for _, k := range a.sortedKeys() {
		v, err := value.FromGo(a[k])
		if err != nil {
			return "", fmt.Errorf("runtime: arg %q: %w", k, err)
		}
		parts = append(parts, fmt.Sprintf("%s=%s", k, v.Display()))
	}
	return fmt.Sprint(parts), nil
}

// ArgsJSON serialises args for provenance storage in a machine-readable
// form, so the replay and retroactive-programming engines can re-serve past
// requests with their original arguments. Arguments must be JSON-safe
// scalars (the same set Args supports).
func ArgsJSON(a Args) (string, error) {
	if a == nil {
		return "{}", nil
	}
	b, err := json.Marshal(map[string]any(a))
	if err != nil {
		return "", fmt.Errorf("runtime: args not serialisable: %w", err)
	}
	return string(b), nil
}

// ParseArgsJSON reverses ArgsJSON. JSON numbers come back as float64; the
// Args accessors normalise them.
func ParseArgsJSON(s string) (Args, error) {
	if s == "" {
		return Args{}, nil
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(s), &m); err != nil {
		return nil, fmt.Errorf("runtime: bad args JSON: %w", err)
	}
	return Args(m), nil
}

// ResultJSON serialises a handler result for provenance storage; replay
// compares it against the re-executed result. Unserialisable results are
// recorded as an opaque marker and excluded from comparison.
func ResultJSON(v any) string {
	if v == nil {
		return "null"
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "<unrepresentable>"
	}
	return string(b)
}
