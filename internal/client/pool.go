package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
)

// Pool is a read/write-splitting, failover-aware client over a replicated
// trod cluster: queries round-robin across the replicas, while writes, DDL,
// and interactive transactions go to the primary. With no replicas it
// degenerates to a plain primary client.
//
// The pool knows the cluster's member set. When the primary stops answering
// (transport failure, shutdown, or a typed fenced rejection), the pool marks
// it down and starts re-discovery: it polls every member's Stats for a
// writable, un-fenced node at a newer replication epoch — the promoted
// replica — and re-routes writes to it. While the search runs, writes fail
// fast with the typed, retryable ErrNoPrimary instead of hanging or being
// silently dropped: a write whose response was lost is *unknown*, never
// retried automatically (retrying it could double-apply), and callers decide
// with Retryable.
//
// Reads served by replicas are consistent snapshots of a commit-order
// prefix of the primary's history, but may trail the primary by the
// replication lag; use QueryPrimary when read-your-writes is required.
type Pool struct {
	opts Options

	mu      sync.Mutex
	members []*member
	primary int    // index into members of the believed primary
	epoch   uint64 // newest primary replication epoch observed
	down    bool   // primary suspected dead; writes fail fast until re-discovery
	search  bool   // single-flight guard for the re-discovery goroutine
	closed  bool

	rr atomic.Uint64
}

// member is one cluster node the pool knows about.
type member struct {
	addr string
	c    *Client
}

// ErrNoPrimary reports a write (or transaction) routed while the primary is
// unreachable and re-discovery has not yet confirmed its successor. It is
// retryable: the write was NOT sent anywhere.
var ErrNoPrimary = errors.New("pool: no live primary (failover in progress); retry")

// NewPool dials the primary and every replica. Any dial failure closes the
// already-opened clients and fails the pool: a replica that is down at pool
// construction is a deployment error, not a condition to silently tolerate.
func NewPool(primaryAddr string, replicaAddrs []string, opts Options) (*Pool, error) {
	p := &Pool{opts: (&opts).withDefaults()}
	primary, err := Dial(primaryAddr, opts)
	if err != nil {
		return nil, fmt.Errorf("pool: primary %s: %w", primaryAddr, err)
	}
	p.members = append(p.members, &member{addr: primaryAddr, c: primary})
	for _, addr := range replicaAddrs {
		c, err := Dial(addr, opts)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("pool: replica %s: %w", addr, err)
		}
		p.members = append(p.members, &member{addr: addr, c: c})
	}
	// Learn the starting epoch (best effort — a pre-failover server reports
	// 0, which is also the zero value).
	if st, err := primary.Stats(); err == nil {
		p.epoch = st.Epoch
	}
	return p, nil
}

// Retryable reports whether an error from the pool is safe and useful to
// retry: the request was rejected before reaching a primary (ErrNoPrimary),
// bounced by admission control or a draining/fenced/read-only server, or
// failed in transport *on a read path*. Write callers seeing a transport
// error got it wrapped in ErrNoPrimary precisely because the write's fate
// is unknown — retrying an INSERT needs an idempotent key; Retryable only
// says the cluster may accept it now.
func Retryable(err error) bool {
	if errors.Is(err, ErrNoPrimary) {
		return true
	}
	var se *protocol.ServerError
	if !errors.As(err, &se) {
		return true // transport failure: the node was unreachable
	}
	switch se.Code {
	case protocol.CodeBusy, protocol.CodeShutdown, protocol.CodeReadOnly, protocol.CodeFenced:
		return true
	}
	return false
}

// retriableElsewhere reports errors worth retrying on another server:
// transport failures and availability rejections. SQL and protocol-state
// errors are deterministic and surface immediately.
func retriableElsewhere(err error) bool {
	var se *protocol.ServerError
	if !errors.As(err, &se) {
		return true // transport failure: this server is unreachable
	}
	switch se.Code {
	case protocol.CodeBusy, protocol.CodeShutdown, protocol.CodeReadOnly, protocol.CodeFenced:
		return true
	}
	return false
}

// primaryFailure reports errors that mean the node can no longer serve as
// the primary: unreachable, draining, fenced by a newer epoch, or demoted
// to read-only. Busy and SQL-level errors are not failover signals.
func primaryFailure(err error) bool {
	var se *protocol.ServerError
	if !errors.As(err, &se) {
		return true
	}
	switch se.Code {
	case protocol.CodeShutdown, protocol.CodeFenced, protocol.CodeReadOnly:
		return true
	}
	return false
}

// snapshot returns the member list, primary index, and down flag under one
// lock acquisition.
func (p *Pool) snapshot() (members []*member, primary int, down bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, 0, false, ErrClosed
	}
	return p.members, p.primary, p.down, nil
}

// primaryClient returns the live primary's client, or fails fast (and kicks
// re-discovery) while the primary is down.
func (p *Pool) primaryClient() (*Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if p.down {
		p.kickRediscoveryLocked()
		return nil, ErrNoPrimary
	}
	return p.members[p.primary].c, nil
}

// suspectPrimary marks the primary down after a failure observed on c and
// starts re-discovery. A stale report (the pool already failed over to a
// different node) is ignored.
func (p *Pool) suspectPrimary(c *Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.members[p.primary].c != c {
		return
	}
	p.down = true
	p.kickRediscoveryLocked()
}

// kickRediscoveryLocked starts the single-flight re-discovery goroutine.
// Caller holds p.mu.
func (p *Pool) kickRediscoveryLocked() {
	if p.search {
		return
	}
	p.search = true
	go p.rediscover()
}

// Re-discovery pacing: how often members are polled and how long the search
// runs before giving up (a later write kicks a fresh one).
const (
	rediscoverInterval = 50 * time.Millisecond
	rediscoverTimeout  = 15 * time.Second
)

// rediscover polls every member's Stats for the cluster's new primary: a
// writable, un-fenced node at an epoch newer than the last one we wrote
// under (promotion always bumps the epoch — an old primary that merely
// restarted reports the same epoch and is accepted only at its old slot,
// which covers recovery-without-failover).
func (p *Pool) rediscover() {
	deadline := time.Now().Add(rediscoverTimeout)
	for {
		p.mu.Lock()
		if p.closed {
			p.search = false
			p.mu.Unlock()
			return
		}
		members := append([]*member(nil), p.members...)
		oldPrimary := p.primary
		knownEpoch := p.epoch
		p.mu.Unlock()

		best, bestEpoch := -1, uint64(0)
		for i, m := range members {
			st, err := m.c.Stats()
			if err != nil || st.IsReplica != 0 || st.Fenced != 0 {
				continue
			}
			acceptable := st.Epoch > knownEpoch || (st.Epoch == knownEpoch && i == oldPrimary)
			if acceptable && (best < 0 || st.Epoch > bestEpoch) {
				best, bestEpoch = i, st.Epoch
			}
		}
		if best >= 0 {
			p.mu.Lock()
			p.primary = best
			p.epoch = bestEpoch
			p.down = false
			p.search = false
			p.mu.Unlock()
			return
		}
		if time.Now().After(deadline) {
			p.mu.Lock()
			p.search = false // give up; the next write starts a fresh search
			p.mu.Unlock()
			return
		}
		time.Sleep(rediscoverInterval)
	}
}

// AwaitPrimary blocks until the pool has a live primary (initial state or
// completed failover) or the timeout expires, and reports success. It does
// not itself probe the cluster; it observes the re-discovery kicked off by
// failed writes.
func (p *Pool) AwaitPrimary(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		down, closed := p.down, p.closed
		p.mu.Unlock()
		if closed {
			return false
		}
		if !down {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Query runs a read statement on a replica (round-robin), falling back to
// further replicas and finally the primary when a server is unavailable.
// During a failover the primary fallback is skipped (it is known dead).
func (p *Pool) Query(sql string, args ...any) (*Result, error) {
	members, primary, down, err := p.snapshot()
	if err != nil {
		return nil, err
	}
	if len(members) == 1 {
		return members[0].c.Query(sql, args...)
	}
	replicas := make([]*member, 0, len(members)-1)
	for i, m := range members {
		if i != primary {
			replicas = append(replicas, m)
		}
	}
	start := p.rr.Add(1)
	var lastErr error
	for i := 0; i < len(replicas); i++ {
		m := replicas[int((start+uint64(i))%uint64(len(replicas)))]
		res, err := m.c.Query(sql, args...)
		if err == nil {
			return res, nil
		}
		if !retriableElsewhere(err) {
			return nil, err
		}
		lastErr = err
		if protocol.IsReadOnly(err) {
			break // it's a write; no replica will take it
		}
	}
	if down {
		return nil, fmt.Errorf("%w (replica: %v)", ErrNoPrimary, lastErr)
	}
	res, err := members[primary].c.Query(sql, args...)
	if err != nil && lastErr != nil {
		return nil, fmt.Errorf("%w (replica: %v)", err, lastErr)
	}
	return res, err
}

// QueryPrimary runs a read on the primary (read-your-writes freshness).
func (p *Pool) QueryPrimary(sql string, args ...any) (*Result, error) {
	c, err := p.primaryClient()
	if err != nil {
		return nil, err
	}
	res, err := c.Query(sql, args...)
	if err != nil && primaryFailure(err) {
		p.suspectPrimary(c)
		return nil, fmt.Errorf("%w (primary: %v)", ErrNoPrimary, err)
	}
	return res, err
}

// Exec runs a write or DDL statement on the primary. When the primary fails
// mid-request the statement's fate is unknown; the typed ErrNoPrimary makes
// that explicit instead of silently dropping or double-applying it.
func (p *Pool) Exec(sql string, args ...any) (*Result, error) {
	c, err := p.primaryClient()
	if err != nil {
		return nil, err
	}
	res, err := c.Exec(sql, args...)
	if err != nil && primaryFailure(err) {
		p.suspectPrimary(c)
		return nil, fmt.Errorf("%w (primary: %v)", ErrNoPrimary, err)
	}
	return res, err
}

// Begin opens an interactive transaction on the primary.
func (p *Pool) Begin() (*Tx, error) {
	c, err := p.primaryClient()
	if err != nil {
		return nil, err
	}
	tx, err := c.Begin()
	if err != nil && primaryFailure(err) {
		p.suspectPrimary(c)
		return nil, fmt.Errorf("%w (primary: %v)", ErrNoPrimary, err)
	}
	return tx, err
}

// Stats fetches the current primary's server counters.
func (p *Pool) Stats() (protocol.Stats, error) {
	c, err := p.primaryClient()
	if err != nil {
		return protocol.Stats{}, err
	}
	return c.Stats()
}

// Close closes every pooled client.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	members := p.members
	p.mu.Unlock()
	var err error
	for _, m := range members {
		if cerr := m.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
