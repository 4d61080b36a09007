package main

import (
	"fmt"
	"time"

	"repro/internal/db"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workload"
)

// app.untraced and app.traced run the paper's E1 microservice mix through
// runtime.App.Invoke on an in-memory database. They differ only in whether
// trace.Attach has been called.

// seededPostBase keeps seeded post ids clear of RequestMix's, which count up
// from 1.
const seededPostBase = 1_000_000_000

type appInst struct {
	e      *env
	traced bool
	users  int
	d      *db.DB
	prov   *db.DB
	app    *runtime.App
	tr     *trace.Tracer

	handlers []string
	args     []runtime.Args
	bodies   []string // bodies[i] = what readPost request i must return
	creates  []int    // creates[i] = createPost requests among ops [0, i)

	drops uint64 // tracer drops seen so far

	// Traced run only.
	cur       int           // the operation being invoked, for txnSpans
	lastDrain time.Duration // how long the latest drain took
	// Tracer counters and drain time over the traced segment: mark notes
	// where the counters stood, unmark turns that into the difference.
	markEvents, markFlushes uint64
	markDrain               time.Duration
}

// appStream is the generated request stream.
type appStream struct {
	users    int
	handlers []string
	args     []runtime.Args
	bodies   []string
	creates  []int
}

func genAppStream(e *env) *appStream {
	// Both app workloads size the database for the untraced operation count,
	// the larger of the two, so they run the same requests on the same rows.
	total := segOpsFor(appUntracedRate, 1, e.seconds) * segments
	st := &appStream{users: appUsers(e.sz, total)}
	st.handlers, st.args = workload.RequestMix(e.totalOps(), st.users, e.seed+1)
	st.creates = make([]int, len(st.handlers)+1)
	st.bodies = make([]string, len(st.handlers))
	created := map[int64]string{} // postId -> body of the posts created so far
	for i, h := range st.handlers {
		st.creates[i+1] = st.creates[i]
		switch h {
		case "createPost":
			st.creates[i+1]++
			created[st.args[i].Int("postId")] = st.args[i].String("body")
		case "readPost":
			// Empty until the first createPost: RequestMix then asks for post 1.
			st.bodies[i] = created[st.args[i].Int("postId")]
		}
	}
	return st
}

func buildApp(e *env, traced bool) (instance, error) {
	if e.appStream == nil {
		e.appStream = genAppStream(e)
	}
	st := e.appStream
	a := &appInst{e: e, traced: traced, users: st.users,
		handlers: st.handlers, args: st.args, bodies: st.bodies, creates: st.creates}
	a.d = db.MustOpenMemory()
	if err := workload.SetupMicroservice(a.d, a.users, e.seed); err != nil {
		return nil, err
	}
	if err := a.seedPosts(); err != nil {
		return nil, err
	}
	a.app = runtime.New(a.d)
	workload.RegisterMicroservice(a.app)
	if traced {
		a.prov = db.MustOpenMemory()
		tr, err := trace.Attach(a.app, a.prov, trace.Config{Tables: workload.MicroserviceTables})
		if err != nil {
			return nil, err
		}
		a.tr = tr
	}
	return a, nil
}

// seedPosts gives every user postsPerUser posts, so readTimeline scans a
// realistic index range from the first request on. users.posts stays 0: it
// counts createPost requests only, which is what check relies on.
func (a *appInst) seedPosts() error {
	tbl := a.d.Store().Table("posts")
	id := int64(seededPostBase)
	const usersPerCommit = 250
	for u := 1; u <= a.users; {
		tx := a.d.Begin()
		for end := u + usersPerCommit; u < end && u <= a.users; u++ {
			for k := 0; k < a.e.sz.postsPerUser; k++ {
				id++
				row := value.Row{value.Int(id), value.Int(int64(u)), value.Text("seeded post")}
				if err := tx.Inner().Insert(tbl, row); err != nil {
					tx.Rollback()
					return err
				}
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

func (a *appInst) op(c, i int) error {
	a.cur = i
	res, err := a.app.Invoke(a.handlers[i], a.args[i])
	if err != nil {
		return err
	}
	switch a.handlers[i] {
	case "createPost":
		if got, want := res.(int64), a.args[i].Int("postId"); got != want {
			return fmt.Errorf("%w: createPost returned %d, want %d", errWrongResult, got, want)
		}
	case "readPost":
		if got, _ := res.(string); got != a.bodies[i] {
			return fmt.Errorf("%w: readPost returned %q, want %q", errWrongResult, got, a.bodies[i])
		}
	}
	return nil
}

// drain makes the segment's provenance queryable. Always-on tracing that
// falls behind is not keeping up, so the wait is inside the segment.
func (a *appInst) drain() error {
	if a.tr == nil {
		return nil
	}
	t0 := time.Now()
	err := a.tr.Flush()
	a.lastDrain = time.Since(t0)
	if err != nil {
		return err
	}
	_, drops, _ := a.tr.Counters()
	if drops != a.drops {
		n := drops - a.drops
		a.drops = drops
		return fmt.Errorf("tracer dropped %d events", n)
	}
	return nil
}

func (a *appInst) check(done int) error {
	rows, err := a.d.Query(`SELECT SUM(posts) FROM users`)
	if err != nil {
		return err
	}
	if got, want := rows.Rows[0][0].AsInt(), int64(a.creates[done]); got != want {
		return fmt.Errorf("SUM(users.posts) = %d, want %d createPost requests", got, want)
	}
	if a.tr == nil {
		return nil
	}
	if err := a.drain(); err != nil {
		return err
	}
	rows, err = a.prov.Query(`SELECT COUNT(*) FROM trod_requests`)
	if err != nil {
		return err
	}
	if got := rows.Rows[0][0].AsInt(); got != int64(done) {
		return fmt.Errorf("trod_requests holds %d rows, want one per issued request (%d)", got, done)
	}
	return nil
}

func (a *appInst) close() error {
	var err error
	if a.tr != nil {
		err = a.tr.Close()
		if cerr := a.prov.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := a.d.Close(); err == nil {
		err = cerr
	}
	return err
}
