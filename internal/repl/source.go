// Package repl implements primary/backup log-shipping replication for the
// TROD engine: a Source on the primary streams committed CDC records and
// DDL statements in commit order to subscribed replicas, which apply them
// into their own stores through the recovery apply path — so row versions,
// secondary indexes, provenance tables, and the schema epoch evolve on every
// replica exactly as they did on the primary.
//
// The stream reuses the engine's existing commit order end to end: every
// stream reads the store's change log (commits and DDL in execution order),
// which supplies both catch-up for recently-disconnected subscribers and
// live entries as they land. A subscriber behind the retained log window
// receives a typed log-truncated error and re-bootstraps from a full
// snapshot shipped over the wire with the checkpoint codec.
//
// Consistency: a replica always sits at a commit-order prefix of the
// primary's history, so every read served at its applied sequence is a
// consistent (if slightly stale) snapshot — the same guarantee a primary
// read transaction gets, minus freshness.
package repl

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/wal"
)

// SourceOptions tunes a replication source. The zero value is production
// ready; tests shrink the intervals.
type SourceOptions struct {
	// Heartbeat is the interval between empty LogBatch frames on an idle
	// stream (default 1s). Heartbeats carry the primary's current sequence,
	// so replicas can report lag and detect a dead primary.
	Heartbeat time.Duration
	// BatchEntries caps stream entries per LogBatch frame (default 256).
	BatchEntries int
	// BatchBytes soft-caps the encoded commit payload per frame (default
	// 4 MiB); a single commit larger than this still ships alone in its own
	// frame (up to protocol.MaxReplFrame).
	BatchBytes int
	// ChunkBytes sizes snapshot bootstrap chunks (default 1 MiB).
	ChunkBytes int
	// FrameLimit caps stream frames (default protocol.MaxReplFrame). Tests
	// lower it to exercise the oversized-commit bootstrap redirect without
	// building multi-gigabyte records; it must never exceed MaxReplFrame
	// (the limit subscribers read with).
	FrameLimit int
	// Epoch is the node's replication-epoch state, shared with a Replica on
	// the same node (a promoted replica serves as a source under the epoch
	// it advanced to). nil attaches a private in-memory epoch 0.
	Epoch *Epoch
	// SyncReplicas, when > 0, turns on synchronous commit: a write commit is
	// acknowledged only once this many subscribers have confirmed its
	// sequence via ack frames on their Subscribe streams (the commit is
	// already applied and locally durable either way). 0 is asynchronous
	// replication — acked commits can be lost on failover.
	SyncReplicas int
	// QuorumTimeout bounds the synchronous-commit wait (default 5s); on
	// expiry the commit surfaces a typed quorum-unavailable error instead of
	// hanging the writer.
	QuorumTimeout time.Duration
	// AckTimeout is how long a subscriber stream may go silent before the
	// source declares it dead and drops it from the quorum set (default
	// 15s — several subscriber heartbeats). Pre-failover subscribers that
	// never ack are disconnected after this timeout.
	AckTimeout time.Duration
}

func (o *SourceOptions) withDefaults() SourceOptions {
	out := *o
	if out.Heartbeat <= 0 {
		out.Heartbeat = time.Second
	}
	if out.BatchEntries <= 0 {
		out.BatchEntries = 256
	}
	if out.BatchBytes <= 0 {
		out.BatchBytes = 4 << 20
	}
	if out.ChunkBytes <= 0 {
		out.ChunkBytes = 1 << 20
	}
	if out.FrameLimit <= 0 || out.FrameLimit > protocol.MaxReplFrame {
		out.FrameLimit = protocol.MaxReplFrame
	}
	if out.QuorumTimeout <= 0 {
		out.QuorumTimeout = 5 * time.Second
	}
	if out.AckTimeout <= 0 {
		out.AckTimeout = 15 * time.Second
	}
	return out
}

// Source is the primary-side replication endpoint: it serves Subscribe
// streams from the store's change log. One Source serves any number of
// concurrent subscribers; attach it once, right after opening the database
// and before serving traffic.
type Source struct {
	db    *db.DB
	store *storage.Store
	opts  SourceOptions
	epoch *Epoch

	subscribers atomic.Int64
	streamed    atomic.Uint64 // commit records handed to a subscriber's connection, all subscribers

	// quorumStalls counts commits whose quorum ack timed out (typed
	// quorum-unavailable surfaced to the writer); see QuorumStalls.
	quorumStalls atomic.Uint64

	// Ack tracking: one subAck per live subscriber stream, updated by its
	// ack-reader goroutine. ackWait is closed-and-replaced on every update
	// and on fencing (a broadcast quorum waiters, streams and Stats can
	// select on with a timeout, which sync.Cond cannot express).
	ackMu   sync.Mutex
	ackSubs map[*subAck]struct{}
	ackWait chan struct{}
}

// subAck is one subscriber's acknowledgement state (guarded by Source.ackMu).
type subAck struct {
	acked   uint64
	lastAck time.Time
}

// NewSource attaches a replication source to a database. Must be called
// before the database serves concurrent traffic (it installs the commit
// barrier).
func NewSource(d *db.DB, opts SourceOptions) *Source {
	s := &Source{
		db:      d,
		store:   d.Store(),
		opts:    (&opts).withDefaults(),
		ackSubs: make(map[*subAck]struct{}),
		ackWait: make(chan struct{}),
	}
	s.epoch = s.opts.Epoch
	if s.epoch == nil {
		s.epoch = &Epoch{}
	}
	if s.epoch.Fenced() {
		// Persisted fencing survives a zombie restart: the node comes back
		// already refusing writes.
		d.SetFenced(true)
	}
	if s.opts.SyncReplicas > 0 {
		d.SetCommitBarrier(s.waitQuorum)
	}
	return s
}

// Subscribers reports the number of live replication streams.
func (s *Source) Subscribers() int { return int(s.subscribers.Load()) }

// StreamedCommits reports the total commit records shipped across all
// subscribers (tests and stats). A batch counts as it is handed to the
// connection, before the write, so no acknowledgement precedes its count;
// a batch whose write fails still counts, and counts again when the
// subscriber reconnects and is sent it once more.
func (s *Source) StreamedCommits() uint64 { return s.streamed.Load() }

// Epoch exposes the node's replication-epoch state.
func (s *Source) Epoch() *Epoch { return s.epoch }

// fenceFrom records a foreign epoch observed on an incoming frame. If it is
// higher than this node's own, the node is a zombie: fence the SQL layer and
// wake every stream and quorum waiter so they fail fast instead of idling.
func (s *Source) fenceFrom(foreign uint64) {
	if !s.epoch.Fence(foreign) {
		return
	}
	s.db.SetFenced(true)
	s.broadcastAcksLocked(false)
}

// broadcastAcksLocked wakes everyone selecting on the ack broadcast channel
// (close-and-replace; sync.Cond cannot be selected on with a timeout).
// locked reports whether the caller already holds ackMu.
func (s *Source) broadcastAcksLocked(locked bool) {
	if !locked {
		s.ackMu.Lock()
		defer s.ackMu.Unlock()
	}
	close(s.ackWait)
	s.ackWait = make(chan struct{})
}

// addSub registers a live subscriber in the quorum/lag set.
func (s *Source) addSub() *subAck {
	sub := &subAck{lastAck: time.Now()}
	s.ackMu.Lock()
	s.ackSubs[sub] = struct{}{}
	s.ackMu.Unlock()
	return sub
}

// dropSub removes a dead subscriber and wakes quorum waiters (the quorum may
// now be unreachable; they re-evaluate and run into their timeout).
func (s *Source) dropSub(sub *subAck) {
	s.ackMu.Lock()
	delete(s.ackSubs, sub)
	s.broadcastAcksLocked(true)
	s.ackMu.Unlock()
}

// recordAck advances one subscriber's confirmed sequence.
func (s *Source) recordAck(sub *subAck, seq uint64) {
	s.ackMu.Lock()
	if seq > sub.acked {
		sub.acked = seq
	}
	sub.lastAck = time.Now()
	s.broadcastAcksLocked(true)
	s.ackMu.Unlock()
}

// quorumSeqLocked returns the highest commit sequence confirmed by at least
// SyncReplicas live subscribers (0 while fewer are connected). Acks are
// cumulative over a sequential log, so the N-th largest per-subscriber ack
// is the quorum watermark. Caller holds ackMu.
func (s *Source) quorumSeqLocked() uint64 {
	n := s.opts.SyncReplicas
	if n <= 0 || len(s.ackSubs) < n {
		return 0
	}
	acked := make([]uint64, 0, len(s.ackSubs))
	for sub := range s.ackSubs {
		acked = append(acked, sub.acked)
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i] > acked[j] })
	return acked[n-1]
}

// waitQuorum is the commit barrier installed when SyncReplicas > 0: it holds
// a locally-durable commit's acknowledgement until the quorum watermark
// reaches its sequence, the node is fenced, or the timeout expires.
func (s *Source) waitQuorum(seq uint64) error {
	timer := time.NewTimer(s.opts.QuorumTimeout)
	defer timer.Stop()
	for {
		if s.epoch.Fenced() {
			return db.ErrFenced
		}
		s.ackMu.Lock()
		if s.quorumSeqLocked() >= seq {
			s.ackMu.Unlock()
			return nil
		}
		wait := s.ackWait
		connected := len(s.ackSubs)
		s.ackMu.Unlock()
		select {
		case <-wait:
		case <-timer.C:
			s.quorumStalls.Add(1)
			return fmt.Errorf("repl: commit %d not confirmed by %d replicas within %v (%d connected): %w",
				seq, s.opts.SyncReplicas, s.opts.QuorumTimeout, connected, db.ErrQuorumUnavailable)
		}
	}
}

// QuorumStalls reports commits whose quorum acknowledgement timed out (each
// surfaced to its writer as a typed quorum-unavailable error). A non-zero
// rate here is the primary signal that SyncReplicas is set higher than the
// live replica set can sustain.
func (s *Source) QuorumStalls() uint64 { return s.quorumStalls.Load() }

// SubscriberLags snapshots every live subscriber's acknowledgement progress
// against head (the node's current commit sequence), most-caught-up first.
func (s *Source) SubscriberLags(head uint64) []protocol.SubscriberLag {
	now := time.Now()
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	out := make([]protocol.SubscriberLag, 0, len(s.ackSubs))
	for sub := range s.ackSubs {
		l := protocol.SubscriberLag{AckedSeq: sub.acked}
		if head > sub.acked {
			l.LagSeqs = head - sub.acked
		}
		if age := now.Sub(sub.lastAck); age > 0 {
			l.LastAckAgeMs = uint64(age / time.Millisecond)
		}
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AckedSeq > out[j].AckedSeq })
	return out
}

const streamWriteTimeout = 30 * time.Second

// Serve handles one MsgSubscribe request on conn, owning the connection in
// both directions (subscribers send ack frames upstream on the same stream)
// until the subscriber disconnects, the drain channel closes, or the stream
// fails. Typed log-truncated refusals are answered by the subscriber with a
// bootstrap re-subscribe on the same connection, which Serve handles
// internally; when Serve returns, the connection is done. conn is the
// connection req was read from, so acks the subscriber sent right behind
// its subscribe and already buffered there are read, not lost.
func (s *Source) Serve(conn *protocol.Conn, req *protocol.Message, drain <-chan struct{}) {
	s.subscribers.Add(1)
	defer s.subscribers.Add(-1)
	for {
		if s.serveOne(conn, req, drain) {
			return
		}
		next, err := s.awaitResubscribe(conn)
		if err != nil {
			return
		}
		req = next
	}
}

// serveOne runs one subscription attempt. It returns true when the
// connection is finished, false after a typed refusal that invites a
// re-subscribe on the same connection.
func (s *Source) serveOne(conn *protocol.Conn, req *protocol.Message, drain <-chan struct{}) (done bool) {
	// Epoch gate. A subscriber announcing a newer epoch proves a newer
	// primary was promoted — this node is a zombie and fences itself. A
	// fenced node must not feed anyone: its un-replicated suffix may have
	// diverged from the surviving timeline.
	if req.Epoch > s.epoch.Current() {
		s.fenceFrom(req.Epoch)
	}
	if s.epoch.Fenced() {
		refuse(conn, protocol.CodeFenced, "this node is fenced (epoch %d, epoch %d exists); subscribe to the current primary",
			s.epoch.Current(), s.epoch.FencedBy())
		return true
	}

	// Pin the log window before validating the position: between a
	// retention check and an unpinned stream start, a checkpoint's vacuum
	// could cut the very entries the subscriber was promised. From here on
	// exactly one function owns the pin at a time; stream() takes it over
	// and releases it when the stream ends.
	pin := s.store.PinSnapshot()

	pos := req.FromSeq
	if !req.Bootstrap {
		if pos < pin {
			s.store.MovePin(pin, pos)
			pin = pos
		}
		// A subscriber still on an older epoch positioned past this epoch's
		// start may carry a diverged suffix (commits the failed primary
		// acked locally but never replicated); only a snapshot bootstrap
		// puts it back on this timeline.
		if req.Epoch < s.epoch.Current() && pos > s.epoch.StartSeq() {
			s.store.UnpinSnapshot(pin)
			refuse(conn, protocol.CodeLogTruncated, "seq %d from epoch %d is past epoch %d's start (seq %d) and may be diverged; re-subscribe with bootstrap",
				pos, req.Epoch, s.epoch.Current(), s.epoch.StartSeq())
			return false
		}
		// A position past the head is from a divergent history; one before
		// the retained log cannot be caught up. The read is the one the
		// stream makes, and the pin keeps its answer valid.
		_, err := s.store.ReadLog(pos, pos)
		if head := s.store.CurrentSeq(); err == nil && pos > head {
			err = fmt.Errorf("seq %d is past this node's head %d", pos, head)
		}
		if err != nil {
			s.store.UnpinSnapshot(pin)
			refuse(conn, protocol.CodeLogTruncated, "cannot catch up: %v; re-subscribe with bootstrap", err)
			return false
		}
	} else {
		snapSeq, err := s.sendSnapshot(conn)
		if err != nil {
			s.store.UnpinSnapshot(pin)
			return true
		}
		if snapSeq > pin {
			s.store.MovePin(pin, snapSeq)
			pin = snapSeq
		}
		pos = snapSeq
	}

	// Ack reader: the subscriber confirms applied sequences (and heartbeats)
	// upstream on this connection. The reader feeds the quorum watermark and
	// per-subscriber lag, and doubles as primary-side failure detection — a
	// stream silent past AckTimeout is declared dead and dropped from the
	// quorum set (releasing its log-window pin).
	sub := s.addSub()
	defer s.dropSub(sub)
	dead := make(chan struct{})
	readerDone := make(chan struct{})
	var stopRead atomic.Bool
	go s.readAcks(conn, sub, dead, &stopRead, readerDone)

	refusal := s.stream(conn, pos, pin, drain, dead)

	// Join the reader before anything else may read the connection. The
	// deadline poke repeats: a reader that re-armed its own deadline just
	// before the poke would otherwise sleep out its full ack timeout.
	stopRead.Store(true)
	for joined := false; !joined; {
		conn.SetReadDeadline(time.Now())
		select {
		case <-readerDone:
			joined = true
		case <-time.After(5 * time.Millisecond):
		}
	}
	conn.SetReadDeadline(time.Time{})

	if refusal != "" {
		// What log shipping cannot serve a snapshot (chunked, any size)
		// covers: tell the subscriber to re-subscribe with bootstrap.
		refuse(conn, protocol.CodeLogTruncated, "%s; re-subscribe with bootstrap", refusal)
		return false
	}
	return true
}

// refuse answers a subscription with a typed error frame.
func refuse(conn *protocol.Conn, code protocol.ErrCode, format string, args ...any) {
	conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	_ = conn.WriteMessage(&protocol.Message{Type: protocol.MsgError, Code: code, Err: fmt.Sprintf(format, args...)}, protocol.MaxFrame)
}

// readAcks consumes a subscriber's ack frames until the stream ends, the
// subscriber goes silent past AckTimeout, or stop is set (the stream writer
// is done and is joining the reader). Closing dead tells the stream loop
// the subscriber failed.
func (s *Source) readAcks(conn *protocol.Conn, sub *subAck, dead chan struct{}, stop *atomic.Bool, done chan struct{}) {
	defer close(done)
	for {
		if stop.Load() {
			return
		}
		conn.SetReadDeadline(time.Now().Add(s.opts.AckTimeout))
		msg, err := conn.ReadMessage(protocol.MaxFrame)
		if err != nil {
			if !stop.Load() {
				close(dead) // disconnected, corrupt stream, or silent too long
			}
			return
		}
		if msg.Type != protocol.MsgAck {
			if !stop.Load() {
				close(dead) // protocol violation mid-stream
			}
			return
		}
		if msg.Epoch > s.epoch.Current() {
			// An ack from the future: a newer primary exists and this node
			// missed the memo. Fence and drop the stream.
			s.fenceFrom(msg.Epoch)
			if !stop.Load() {
				close(dead)
			}
			return
		}
		s.recordAck(sub, msg.Seq)
	}
}

// awaitResubscribe reads the follow-up bootstrap subscribe after a typed
// refusal, skipping ack frames already in flight when the refusal crossed
// them on the wire.
func (s *Source) awaitResubscribe(conn *protocol.Conn) (*protocol.Message, error) {
	deadline := time.Now().Add(streamWriteTimeout)
	for {
		conn.SetReadDeadline(deadline)
		msg, err := conn.ReadMessage(protocol.MaxFrame)
		if err != nil {
			return nil, err
		}
		switch msg.Type {
		case protocol.MsgSubscribe:
			conn.SetReadDeadline(time.Time{})
			return msg, nil
		case protocol.MsgAck:
			// A stale ack that crossed the refusal; ignore it.
		default:
			return nil, fmt.Errorf("repl: unexpected message type %d awaiting re-subscribe", msg.Type)
		}
	}
}

// sendSnapshot ships the full current state as compressed chunks and
// returns the snapshot's commit sequence. The caller's pin (taken before
// encoding) keeps the post-snapshot log window alive.
func (s *Source) sendSnapshot(conn *protocol.Conn) (uint64, error) {
	raw, seq := s.store.EncodeSnapshot()
	comp := storage.CompressSnapshot(raw)
	for off := 0; ; off += s.opts.ChunkBytes {
		end := off + s.opts.ChunkBytes
		last := end >= len(comp)
		if last {
			end = len(comp)
		}
		conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		err := conn.WriteMessage(&protocol.Message{
			Type:  protocol.MsgSnapshotChunk,
			Data:  comp[off:end],
			Seq:   seq,
			Last:  last,
			Epoch: s.epoch.Current(),
		}, s.opts.FrameLimit)
		if err != nil {
			return 0, err
		}
		if last {
			return seq, nil
		}
	}
}

// stream pushes log batches from pos until the connection or server dies,
// the node is fenced, or the subscriber's ack reader declares it dead. It
// owns the caller's pin: the pin starts at or below pos, advances batch
// by batch (so Vacuum can never cut an entry this subscriber still needs),
// and is released when the stream ends (a detached subscriber pins
// nothing). It returns why log shipping cannot go on by itself, or "" when
// the stream just ended: a single entry larger than the replication frame
// cap, or a log read that failed (the caller then directs the subscriber
// to a snapshot bootstrap).
func (s *Source) stream(conn *protocol.Conn, pos, pin uint64, drain, dead <-chan struct{}) (refusal string) {
	defer func() { s.store.UnpinSnapshot(pin) }()
	skip := 0 // DDL entries positioned at pos already shipped
	hb := time.NewTicker(s.opts.Heartbeat)
	defer hb.Stop()
	for {
		if s.epoch.Fenced() {
			// A fenced node stops feeding subscribers mid-stream; they
			// reconnect and get the typed fenced refusal.
			return ""
		}
		// Take both wake-ups before reading, so nothing that lands after
		// the read goes unnoticed: the log's, and the ack broadcast, which
		// fencing fires.
		logged := s.store.LogSignal()
		s.ackMu.Lock()
		fenced := s.ackWait
		s.ackMu.Unlock()
		// Drain everything between pos and the current head, batch by batch.
		head := s.store.CurrentSeq()
		for {
			batch, err := s.buildBatch(pos, skip, head)
			if err != nil {
				return err.Error()
			}
			if len(batch) == 0 {
				break
			}
			// Advance past the batch and count its commits before writing
			// it: the replica can apply and acknowledge a batch before
			// WriteMessage returns, and an acknowledged commit must already
			// be counted. A failed write ends the stream.
			for i := range batch {
				if batch[i].IsDDL() {
					skip++
				} else {
					pos, skip = batch[i].Commit.Seq, 0
					s.streamed.Add(1)
				}
			}
			conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			err = conn.WriteMessage(&protocol.Message{
				Type: protocol.MsgLogBatch, Entries: batch, PrimarySeq: head,
				Epoch: s.epoch.Current(),
			}, s.opts.FrameLimit)
			if errors.Is(err, protocol.ErrFrameTooLarge) {
				// Oversized entries ship alone (buildBatch's byte budget), so
				// this single entry can never be log-shipped; nothing was
				// written and the connection is still clean for the typed
				// redirect.
				return fmt.Sprintf("a commit exceeds the %d-byte replication frame cap and cannot be log-shipped", s.opts.FrameLimit)
			}
			if err != nil {
				return ""
			}
			if pos > pin {
				s.store.MovePin(pin, pos)
				pin = pos
			}
		}
		select {
		case <-logged:
		case <-fenced:
		case <-hb.C:
			conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			err := conn.WriteMessage(&protocol.Message{
				Type: protocol.MsgLogBatch, PrimarySeq: s.store.CurrentSeq(),
				Epoch: s.epoch.Current(),
			}, s.opts.FrameLimit)
			if err != nil {
				return ""
			}
		case <-drain:
			return ""
		case <-dead:
			return ""
		}
	}
}

// buildBatch assembles the next LogBatch for a subscriber at pos that was
// already sent the first skip DDL statements positioned there, up to the
// caps and never past head. The store's log interleaves DDL with commits
// at their positions (after commit seq, before commit seq+1), so the
// subscriber applies schema changes exactly where the primary did.
func (s *Source) buildBatch(pos uint64, skip int, head uint64) ([]protocol.LogEntry, error) {
	entries, err := s.store.ReadLog(pos, min(head, pos+uint64(s.opts.BatchEntries)))
	if err != nil {
		return nil, err
	}
	// The log lists the DDL at pos first; the first skip of them went out.
	for ; skip > 0 && len(entries) > 0 && entries[0].DDL != ""; skip-- {
		entries = entries[1:]
	}
	var batch []protocol.LogEntry
	bytes := 0
	for _, e := range entries {
		if len(batch) == s.opts.BatchEntries {
			break
		}
		if e.DDL != "" {
			batch = append(batch, protocol.LogEntry{DDL: e.DDL})
			bytes += len(e.DDL)
			continue
		}
		// Serialize once: the encoding both sizes the batch budget and ships
		// verbatim on the wire (LogEntry.EncodedCommit fast path).
		enc := wal.EncodeCommit(nil, e.CommitRecord)
		if len(batch) > 0 && bytes+len(enc) > s.opts.BatchBytes {
			break // ship what we have; the big record opens the next frame
		}
		// A traced commit ships as a traced entry, so the replica can file
		// its apply spans under the originating request's trace.
		batch = append(batch, protocol.LogEntry{Commit: e.CommitRecord, EncodedCommit: enc, TraceID: e.TraceID})
		bytes += len(enc)
	}
	return batch, nil
}
