package repl

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/protocol"
	"repro/internal/span"
)

// ReplicaOptions tunes a replica's subscription loop. The zero value is
// production ready; tests shrink the intervals.
type ReplicaOptions struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// MinBackoff/MaxBackoff bound the reconnect backoff after a failed or
	// broken session (defaults 50ms and 2s). Backoff resets after any
	// session that made progress.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// StaleAfter is the per-frame read deadline (default 10s). The source
	// heartbeats every second by default, so a stream quiet this long means
	// the primary is gone and the replica should redial.
	StaleAfter time.Duration
	// Epoch is the node's replication-epoch state, shared with a Source on
	// the same node (every node can be promoted). nil attaches a private
	// in-memory epoch 0.
	Epoch *Epoch
	// SpanSink, when set, receives the span buffer of every traced commit
	// the replica applies — log entries the primary stamped with the
	// originating request's trace ID (see protocol.LogEntry.TraceID). The
	// buffer carries that trace ID and the applied commit sequence; its
	// root span covers the apply, with the commit path's stages
	// (repl_apply, repl_wal_append, the fsync wait) beneath it. Untraced
	// entries and skipped duplicates never reach the sink.
	SpanSink func(*span.Buf)
}

func (o *ReplicaOptions) withDefaults() ReplicaOptions {
	out := *o
	if out.DialTimeout <= 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.MinBackoff <= 0 {
		out.MinBackoff = 50 * time.Millisecond
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = 2 * time.Second
	}
	if out.StaleAfter <= 0 {
		out.StaleAfter = 10 * time.Second
	}
	return out
}

// Replica tails a primary's replication stream into its own database. The
// database should be opened read-only (db.SetReadOnly) with its own WAL: the
// replica persists everything it applies, so a restart resumes from the last
// applied commit sequence instead of re-bootstrapping. The subscription loop
// runs in a background goroutine and reconnects with exponential backoff
// whenever the primary restarts or the network drops.
type Replica struct {
	db    *db.DB
	opts  ReplicaOptions
	epoch *Epoch
	rng   *rand.Rand // reconnect jitter; guarded by mu

	applied    atomic.Uint64
	primarySeq atomic.Uint64
	connected  atomic.Bool
	bootstraps atomic.Uint64

	mu      sync.Mutex
	addr    string // current primary address; Redirect changes it
	conn    net.Conn
	lastErr error

	rebootstrap atomic.Bool // set after a desync; next subscribe bootstraps
	promoted    atomic.Bool // set by Promote; the run loop exits

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartReplica begins replicating primaryAddr into d and returns the running
// replica. d must already be recovered (its current sequence is the resume
// position) and should be read-only for SQL traffic.
func StartReplica(d *db.DB, primaryAddr string, opts ReplicaOptions) *Replica {
	r := &Replica{
		db:   d,
		addr: primaryAddr,
		opts: (&opts).withDefaults(),
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	r.epoch = r.opts.Epoch
	if r.epoch == nil {
		r.epoch = &Epoch{}
	}
	r.applied.Store(d.Store().CurrentSeq())
	go r.run()
	return r
}

// DB returns the replica's database (the server serves reads from it).
func (r *Replica) DB() *db.DB { return r.db }

// AppliedSeq returns the last commit sequence applied locally.
func (r *Replica) AppliedSeq() uint64 { return r.applied.Load() }

// PrimarySeq returns the newest primary commit sequence heard of (from
// batches and heartbeats); zero before the first contact.
func (r *Replica) PrimarySeq() uint64 { return r.primarySeq.Load() }

// Connected reports whether a subscription stream is currently live.
func (r *Replica) Connected() bool { return r.connected.Load() }

// Bootstraps counts full snapshot re-bootstraps (0 on a replica that always
// caught up via the log).
func (r *Replica) Bootstraps() uint64 { return r.bootstraps.Load() }

// LastErr returns the most recent session error (nil while healthy).
func (r *Replica) LastErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// Epoch exposes the node's replication-epoch state.
func (r *Replica) Epoch() *Epoch { return r.epoch }

// Addr returns the primary address the replica currently follows.
func (r *Replica) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addr
}

// Redirect points the replica at a different primary (after a promotion)
// and breaks the current session so the next one dials the new address.
// The replica's position is preserved: it resumes by catch-up when its
// prefix is compatible, or re-bootstraps when the new primary says so.
func (r *Replica) Redirect(newAddr string) {
	r.mu.Lock()
	r.addr = newAddr
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
}

// Promote flips this replica into a writable primary at newEpoch (0 picks
// the lowest epoch past everything the node has heard of): the subscription
// loop is stopped, the epoch advances with the promotion point set to the
// replica's applied sequence, and the database becomes writable. The caller
// is responsible for having picked the right replica — under quorum
// commit, the one with the highest applied sequence among survivors, which
// by the log's prefix property carries every quorum-acked commit.
// Returns the epoch granted and the promotion-point sequence.
func (r *Replica) Promote(newEpoch uint64) (epoch, seq uint64, err error) {
	// Stop the subscription loop first: nothing may apply past the
	// promotion point once the new timeline starts.
	r.promoted.Store(true)
	r.Stop()
	if newEpoch == 0 {
		newEpoch = r.epoch.NextEpoch()
	}
	seq = r.db.Store().CurrentSeq()
	if err := r.epoch.Advance(newEpoch, seq); err != nil {
		return 0, 0, err
	}
	r.db.SetFenced(false)
	r.db.SetReadOnly(false)
	return newEpoch, seq, nil
}

// Stop terminates the subscription loop and waits for it to exit. The
// replica's database is left open (the caller owns it).
func (r *Replica) Stop() {
	r.once.Do(func() { close(r.stop) })
	r.mu.Lock()
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	<-r.done
}

// WaitForSeq blocks until the replica has applied at least seq, or the
// timeout expires.
func (r *Replica) WaitForSeq(seq uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if r.applied.Load() >= seq {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return r.applied.Load() >= seq
}

func (r *Replica) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// run is the reconnect loop: each session subscribes and applies until the
// stream breaks, then the loop backs off and redials.
func (r *Replica) run() {
	defer close(r.done)
	backoff := r.opts.MinBackoff
	for {
		if r.stopped() {
			return
		}
		progressed, err := r.session()
		r.connected.Store(false)
		if r.stopped() {
			return
		}
		r.mu.Lock()
		r.lastErr = err
		r.mu.Unlock()
		if progressed {
			backoff = r.opts.MinBackoff
		} else if backoff < r.opts.MaxBackoff {
			backoff *= 2
			if backoff > r.opts.MaxBackoff {
				backoff = r.opts.MaxBackoff
			}
		}
		// Jitter the wait across [backoff/2, backoff]: when a primary
		// restarts, its replicas' backoff clocks are synchronized (they all
		// lost their streams in the same instant), and un-jittered sleeps
		// would stampede it with simultaneous redials forever.
		wait := backoff
		if half := backoff / 2; half > 0 {
			r.mu.Lock()
			wait = half + time.Duration(r.rng.Int63n(int64(half)+1))
			r.mu.Unlock()
		}
		select {
		case <-r.stop:
			return
		case <-time.After(wait):
		}
	}
}

// setConn tracks the live connection so Stop and Redirect can interrupt a
// blocked read. It refuses a connection dialed to addr once Stop ran or a
// Redirect has moved the replica elsewhere: either closed whatever was
// tracked while the dial ran, so the new connection would otherwise outlive
// it and a Stop would wait out a whole read deadline.
func (r *Replica) setConn(c net.Conn, addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c != nil && (r.addr != addr || r.stopped()) {
		return false
	}
	r.conn = c
	return true
}

// session runs one subscription: dial, subscribe from the locally-applied
// sequence (or bootstrap after a refusal/desync), then apply the stream
// until it breaks, acking each applied batch upstream. Reports whether any
// progress was made (snapshot applied or batch received), which resets the
// reconnect backoff.
func (r *Replica) session() (bool, error) {
	addr := r.Addr()
	nc, err := net.DialTimeout("tcp", addr, r.opts.DialTimeout)
	if err != nil {
		return false, err
	}
	if !r.setConn(nc, addr) {
		nc.Close()
		return false, fmt.Errorf("repl: stopped or redirected away from %s while dialing it", addr)
	}
	defer func() {
		r.setConn(nil, "")
		nc.Close()
	}()
	conn := protocol.NewConn(nc)

	bootstrap := r.rebootstrap.Load()
	sub := &protocol.Message{
		Type:      protocol.MsgSubscribe,
		FromSeq:   r.db.Store().CurrentSeq(),
		Bootstrap: bootstrap,
		Epoch:     r.epoch.Current(),
	}
	conn.SetWriteDeadline(time.Now().Add(r.opts.DialTimeout))
	if err := conn.WriteMessage(sub, protocol.MaxFrame); err != nil {
		return false, err
	}

	progressed := false
	var snapBuf []byte
	for {
		conn.SetReadDeadline(time.Now().Add(r.opts.StaleAfter))
		msg, err := conn.ReadMessage(protocol.MaxReplFrame)
		if err != nil {
			return progressed, err
		}
		switch msg.Type {
		case protocol.MsgError:
			if msg.Code == protocol.CodeLogTruncated && !bootstrap {
				// Detached too long: the primary dropped our log window.
				// Fall back to a full snapshot bootstrap on the same
				// connection.
				bootstrap = true
				conn.SetWriteDeadline(time.Now().Add(r.opts.DialTimeout))
				err := conn.WriteMessage(&protocol.Message{
					Type: protocol.MsgSubscribe, Bootstrap: true,
					Epoch: r.epoch.Current(),
				}, protocol.MaxFrame)
				if err != nil {
					return progressed, err
				}
				continue
			}
			return progressed, &protocol.ServerError{Code: msg.Code, Msg: msg.Err}
		case protocol.MsgSnapshotChunk:
			if err := r.observeEpoch(msg.Epoch); err != nil {
				return progressed, err
			}
			snapBuf = append(snapBuf, msg.Data...)
			if !msg.Last {
				continue
			}
			if err := r.db.BootstrapFromSnapshot(snapBuf); err != nil {
				return progressed, err
			}
			snapBuf = nil
			r.rebootstrap.Store(false)
			r.bootstraps.Add(1)
			r.applied.Store(r.db.Store().CurrentSeq())
			if msg.Seq > r.primarySeq.Load() {
				r.primarySeq.Store(msg.Seq)
			}
			r.connected.Store(true)
			progressed = true
			if err := r.sendAck(conn); err != nil {
				return progressed, err
			}
		case protocol.MsgLogBatch:
			if err := r.observeEpoch(msg.Epoch); err != nil {
				return progressed, err
			}
			for i := range msg.Entries {
				e := &msg.Entries[i]
				if e.IsDDL() {
					err = r.db.ApplyReplicatedDDL(e.DDL)
				} else {
					err = r.applyCommit(e)
				}
				if err != nil {
					// Apply failures mean this replica's state has diverged
					// from the stream (or its disk failed); a fresh snapshot
					// is the only safe way forward.
					r.rebootstrap.Store(true)
					return progressed, fmt.Errorf("repl: apply: %w", err)
				}
			}
			r.applied.Store(r.db.Store().CurrentSeq())
			if msg.PrimarySeq > r.primarySeq.Load() {
				r.primarySeq.Store(msg.PrimarySeq)
			}
			r.connected.Store(true)
			progressed = true
			// Confirm the applied position upstream — batches feed the
			// quorum watermark, heartbeat acks keep failure detection and
			// lag stats fresh on an idle stream.
			if err := r.sendAck(conn); err != nil {
				return progressed, err
			}
		default:
			return progressed, fmt.Errorf("repl: unexpected message type %d on subscription", msg.Type)
		}
	}
}

// applyCommit applies one replicated commit. The record keeps its
// originating trace ID, and when the primary traced the commit and a span
// sink is set, the apply is timed into a span buffer under that trace so
// the trace shows the full replication cost.
func (r *Replica) applyCommit(e *protocol.LogEntry) error {
	e.Commit.TraceID = e.TraceID
	if e.TraceID == 0 || r.opts.SpanSink == nil {
		return r.db.ApplyReplicatedCommit(e.Commit, nil)
	}
	sp := span.NewBuf(e.TraceID, 0)
	start := time.Now()
	if err := r.db.ApplyReplicatedCommit(e.Commit, sp); err != nil {
		return err
	}
	if sp.CommitSeq() != 0 { // 0: a duplicate, skipped
		sp.Finish(start, time.Since(start))
		r.opts.SpanSink(sp)
	}
	return nil
}

// observeEpoch processes the epoch stamped on a stream frame: a higher epoch
// is adopted (the upstream primary was promoted and this replica follows
// it); a lower one is a frame from a stale primary — a zombie feed — and
// the session ends with a typed fenced error so it is never applied.
func (r *Replica) observeEpoch(epoch uint64) error {
	cur := r.epoch.Current()
	if epoch > cur {
		return r.epoch.Follow(epoch, r.applied.Load())
	}
	if epoch < cur {
		return &protocol.ServerError{Code: protocol.CodeFenced,
			Msg: fmt.Sprintf("stream frame from stale epoch %d (replica is at %d)", epoch, cur)}
	}
	return nil
}

// sendAck confirms the replica's applied sequence on the subscription
// stream (the primary's quorum watermark and lag stats feed on these).
func (r *Replica) sendAck(conn *protocol.Conn) error {
	conn.SetWriteDeadline(time.Now().Add(r.opts.DialTimeout))
	return conn.WriteMessage(&protocol.Message{
		Type:  protocol.MsgAck,
		Seq:   r.applied.Load(),
		Epoch: r.epoch.Current(),
	}, protocol.MaxFrame)
}
