package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
)

func newApp(t *testing.T) *App {
	t.Helper()
	d := db.MustOpenMemory()
	t.Cleanup(func() { d.Close() })
	if err := d.ExecScript(`CREATE TABLE kv (k TEXT PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	return New(d)
}

// recObserver records every runtime event.
type recObserver struct {
	mu        sync.Mutex
	starts    []RequestInfo
	ends      []RequestInfo
	invs      []InvocationInfo
	externals []ExternalCall
}

func (r *recObserver) RequestStart(i RequestInfo) {
	r.mu.Lock()
	r.starts = append(r.starts, i)
	r.mu.Unlock()
}
func (r *recObserver) RequestEnd(i RequestInfo) {
	r.mu.Lock()
	r.ends = append(r.ends, i)
	r.mu.Unlock()
}
func (r *recObserver) Invocation(i InvocationInfo) {
	r.mu.Lock()
	r.invs = append(r.invs, i)
	r.mu.Unlock()
}
func (r *recObserver) External(e ExternalCall) {
	r.mu.Lock()
	r.externals = append(r.externals, e)
	r.mu.Unlock()
}

func TestArgsAccessors(t *testing.T) {
	a := Args{"s": "str", "i": 42, "i64": int64(7), "f": 2.9, "b": true}
	if a.String("s") != "str" || a.String("missing") != "" {
		t.Error("String accessor")
	}
	if a.Int("i") != 42 || a.Int("i64") != 7 || a.Int("f") != 2 || a.Int("missing") != 0 {
		t.Error("Int accessor")
	}
	if !a.Bool("b") || a.Bool("missing") {
		t.Error("Bool accessor")
	}
	cp := a.Clone()
	cp["s"] = "other"
	if a.String("s") != "str" {
		t.Error("Clone aliases")
	}
}

func TestInvokeBasic(t *testing.T) {
	app := newApp(t)
	app.Register("put", func(c *Ctx, args Args) (any, error) {
		_, err := c.Exec("put", `INSERT INTO kv VALUES (?, ?)`, args.String("k"), args.Int("v"))
		return nil, err
	})
	app.Register("get", func(c *Ctx, args Args) (any, error) {
		rows, err := c.Query("get", `SELECT v FROM kv WHERE k = ?`, args.String("k"))
		if err != nil {
			return nil, err
		}
		if len(rows.Rows) == 0 {
			return nil, nil
		}
		return rows.Rows[0][0].AsInt(), nil
	})
	if _, err := app.Invoke("put", Args{"k": "a", "v": 5}); err != nil {
		t.Fatal(err)
	}
	got, err := app.Invoke("get", Args{"k": "a"})
	if err != nil || got.(int64) != 5 {
		t.Fatalf("get = %v, %v", got, err)
	}
	if _, err := app.Invoke("nope", nil); !errors.Is(err, ErrUnknownHandler) {
		t.Errorf("unknown handler error = %v", err)
	}
}

func TestReqIDsAreUniqueAndSequential(t *testing.T) {
	app := newApp(t)
	app.Register("noop", func(*Ctx, Args) (any, error) { return nil, nil })
	obs := &recObserver{}
	app.SetObserver(obs)
	for i := 0; i < 3; i++ {
		app.Invoke("noop", nil)
	}
	if len(obs.starts) != 3 || obs.starts[0].ReqID != "R1" || obs.starts[2].ReqID != "R3" {
		t.Errorf("req ids = %+v", obs.starts)
	}
}

// An explicit ID in the allocator's "R<n>" form must not be handed out again
// by Invoke: the tracer keys trod_requests by request ID, so a repeat made
// the whole provenance batch holding it fail to commit.
func TestExplicitReqIDReservesAllocatorID(t *testing.T) {
	app := newApp(t)
	app.Register("noop", func(*Ctx, Args) (any, error) { return nil, nil })
	obs := &recObserver{}
	app.SetObserver(obs)
	app.InvokeWithReqID("R2", "noop", nil)
	app.InvokeWithReqID("Q7", "noop", nil)
	for i := 0; i < 3; i++ {
		app.Invoke("noop", nil)
	}
	var got []string
	for _, s := range obs.starts {
		got = append(got, s.ReqID)
	}
	if want := "[R2 Q7 R3 R4 R5]"; fmt.Sprint(got) != want {
		t.Errorf("req ids = %v, want %s", got, want)
	}
}

func TestWorkflowRPCPropagation(t *testing.T) {
	app := newApp(t)
	obs := &recObserver{}
	app.SetObserver(obs)
	var seenReqID string
	app.Register("leaf", func(c *Ctx, args Args) (any, error) {
		seenReqID = c.ReqID
		return "leaf-result", nil
	})
	app.Register("mid", func(c *Ctx, args Args) (any, error) {
		return c.Call("leaf", nil)
	})
	app.Register("entry", func(c *Ctx, args Args) (any, error) {
		return c.Call("mid", nil)
	})
	res, err := app.InvokeWithReqID("R77", "entry", nil)
	if err != nil || res != "leaf-result" {
		t.Fatalf("workflow = %v, %v", res, err)
	}
	if seenReqID != "R77" {
		t.Errorf("ReqID did not propagate: %q", seenReqID)
	}
	// Invocation tree: entry R77/0, mid R77/0.1, leaf R77/0.1.1.
	if len(obs.invs) != 3 {
		t.Fatalf("invocations = %+v", obs.invs)
	}
	if obs.invs[0].InvocationID != "R77/0" || obs.invs[0].Parent != "" {
		t.Errorf("entry inv = %+v", obs.invs[0])
	}
	if obs.invs[1].InvocationID != "R77/0.1" || obs.invs[1].Parent != "R77/0" {
		t.Errorf("mid inv = %+v", obs.invs[1])
	}
	if obs.invs[2].InvocationID != "R77/0.1.1" || obs.invs[2].Parent != "R77/0.1" {
		t.Errorf("leaf inv = %+v", obs.invs[2])
	}
	// Calling an unknown handler through RPC fails cleanly.
	app.Register("bad", func(c *Ctx, args Args) (any, error) { return c.Call("ghost", nil) })
	if _, err := app.Invoke("bad", nil); !errors.Is(err, ErrUnknownHandler) {
		t.Errorf("rpc unknown = %v", err)
	}
}

func TestTxnMetaAttached(t *testing.T) {
	app := newApp(t)
	var metas []db.TxMeta
	app.DB().SetHook(func(tr db.TxnTrace) { metas = append(metas, tr.Meta) })
	app.Register("subscribeUser", func(c *Ctx, args Args) (any, error) {
		if _, err := c.Query("isSubscribed", `SELECT * FROM kv WHERE k = 'x'`); err != nil {
			return nil, err
		}
		_, err := c.Exec("DB.insert", `INSERT INTO kv VALUES ('x', 1)`)
		return nil, err
	})
	if _, err := app.InvokeWithReqID("R1", "subscribeUser", nil); err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 {
		t.Fatalf("metas = %+v", metas)
	}
	if metas[0].ReqID != "R1" || metas[0].Handler != "subscribeUser" || metas[0].Func != "isSubscribed" {
		t.Errorf("meta[0] = %+v", metas[0])
	}
	if metas[1].Func != "DB.insert" {
		t.Errorf("meta[1] = %+v", metas[1])
	}
}

func TestTxnInterceptorOrdering(t *testing.T) {
	app := newApp(t)
	var events []string
	app.SetTxnInterceptor(interceptFn{
		before: func(c *Ctx, label string) error {
			events = append(events, "before:"+label)
			return nil
		},
		after: func(c *Ctx, label string, err error) {
			events = append(events, "after:"+label)
		},
	})
	app.Register("h", func(c *Ctx, args Args) (any, error) {
		if err := c.Txn("t1", func(tx *db.Tx) error { return nil }); err != nil {
			return nil, err
		}
		return nil, c.Txn("t2", func(tx *db.Tx) error { return nil })
	})
	if _, err := app.Invoke("h", nil); err != nil {
		t.Fatal(err)
	}
	want := "[before:t1 after:t1 before:t2 after:t2]"
	if fmt.Sprint(events) != want {
		t.Errorf("interceptor events = %v, want %v", events, want)
	}
}

func TestTxnInterceptorBeforeErrorAborts(t *testing.T) {
	app := newApp(t)
	sentinel := errors.New("blocked by scheduler")
	app.SetTxnInterceptor(interceptFn{
		before: func(*Ctx, string) error { return sentinel },
		after:  func(*Ctx, string, error) {},
	})
	app.Register("h", func(c *Ctx, args Args) (any, error) {
		return nil, c.Txn("t", func(tx *db.Tx) error {
			t.Error("txn body must not run")
			return nil
		})
	})
	if _, err := app.Invoke("h", nil); !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

type interceptFn struct {
	before func(*Ctx, string) error
	after  func(*Ctx, string, error)
}

func (i interceptFn) Before(c *Ctx, label string) error     { return i.before(c, label) }
func (i interceptFn) After(c *Ctx, label string, err error) { i.after(c, label, err) }

func TestExternalCallIdempotency(t *testing.T) {
	app := newApp(t)
	obs := &recObserver{}
	app.SetObserver(obs)
	app.Register("notify", func(c *Ctx, args Args) (any, error) {
		r1 := c.External("email", "hello")
		r2 := c.External("email", "hello") // deduplicated
		if r1 != r2 {
			t.Error("idempotent call returned different results")
		}
		return r1, nil
	})
	res, err := app.InvokeWithReqID("R9", "notify", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.(string), "email") {
		t.Errorf("external result = %v", res)
	}
	if len(obs.externals) != 1 {
		t.Errorf("external side effects = %d, want 1 (dedup)", len(obs.externals))
	}
	// Re-invoking the same request (replay) must not re-fire the external.
	if _, err := app.InvokeWithReqID("R9", "notify", nil); err != nil {
		t.Fatal(err)
	}
	if len(obs.externals) != 1 {
		t.Errorf("replay re-fired external call: %d", len(obs.externals))
	}
}

func TestLogicalClockMonotonic(t *testing.T) {
	app := newApp(t)
	var prev uint64
	for i := 0; i < 100; i++ {
		l := app.NextLogical()
		if l <= prev {
			t.Fatalf("logical clock went backwards: %d after %d", l, prev)
		}
		prev = l
	}
}

func TestHandlerErrorPropagatesAndIsObserved(t *testing.T) {
	app := newApp(t)
	obs := &recObserver{}
	app.SetObserver(obs)
	sentinel := errors.New("handler failed")
	app.Register("fail", func(*Ctx, Args) (any, error) { return nil, sentinel })
	if _, err := app.Invoke("fail", nil); !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
	if len(obs.ends) != 1 || !errors.Is(obs.ends[0].Err, sentinel) {
		t.Errorf("observer end = %+v", obs.ends)
	}
}

func TestConcurrentRequestsSafe(t *testing.T) {
	app := newApp(t)
	app.DB().ExecScript(`INSERT INTO kv VALUES ('n', 0)`)
	app.Register("inc", func(c *Ctx, args Args) (any, error) {
		return nil, c.Txn("inc", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT v FROM kv WHERE k = 'n'`)
			if err != nil {
				return err
			}
			_, err = tx.Exec(`UPDATE kv SET v = ? WHERE k = 'n'`, rows.Rows[0][0].AsInt()+1)
			return err
		})
	})
	const workers, each = 6, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := app.Invoke("inc", nil); err != nil {
					t.Errorf("inc: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	rows, _ := app.DB().Query(`SELECT v FROM kv WHERE k = 'n'`)
	if got := rows.Rows[0][0].AsInt(); got != workers*each {
		t.Errorf("counter = %d, want %d", got, workers*each)
	}
}

func TestRegisterReplacesHandler(t *testing.T) {
	app := newApp(t)
	app.Register("h", func(*Ctx, Args) (any, error) { return "v1", nil })
	app.Register("h", func(*Ctx, Args) (any, error) { return "v2", nil })
	res, _ := app.Invoke("h", nil)
	if res != "v2" {
		t.Errorf("handler not replaced: %v", res)
	}
	if got := app.Handlers(); len(got) != 1 || got[0] != "h" {
		t.Errorf("Handlers() = %v", got)
	}
}

func TestArgsToRowDeterministic(t *testing.T) {
	a := Args{"z": 1, "a": "x", "m": true}
	s1, err := ArgsToRow(a)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := ArgsToRow(a)
	if s1 != s2 {
		t.Error("ArgsToRow not deterministic")
	}
	if !strings.Contains(s1, "a=x") || !strings.Contains(s1, "z=1") {
		t.Errorf("rendered = %q", s1)
	}
	if _, err := ArgsToRow(Args{"bad": struct{}{}}); err == nil {
		t.Error("unsupported arg should fail")
	}
}

// TestExternalResultsDroppedAtRequestEnd: the idempotency record of an
// Invoke-served request's external calls lives only as long as the request,
// so an always-on App does not grow with every call it has ever made, while
// a repeated call inside one request still returns the first result.
func TestExternalResultsDroppedAtRequestEnd(t *testing.T) {
	app := newApp(t)
	app.Register("notify", func(c *Ctx, args Args) (any, error) {
		first := c.External("email", args.String("to"))
		if again := c.External("email", "someone else"); again != first {
			t.Errorf("repeated call in one request = %q, want the first result %q", again, first)
		}
		return first, nil
	})
	for i := 0; i < 1000; i++ {
		if _, err := app.Invoke("notify", Args{"to": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	app.externalMu.Lock()
	n := len(app.externalResults)
	app.externalMu.Unlock()
	if n != 0 {
		t.Fatalf("after 1000 finished requests, %d requests still hold external results", n)
	}
}
