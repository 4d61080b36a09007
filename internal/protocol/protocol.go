// Package protocol defines the wire protocol spoken between trod-server and
// its clients: a length-prefixed, CRC-framed request/response exchange over
// a byte stream (TCP in production, net.Pipe in tests).
//
// Frame layout (all integers big-endian):
//
//	+----------------+----------------+=================+
//	| u32 payload len| u32 CRC32(pay) |     payload     |
//	+----------------+----------------+=================+
//
// The CRC (IEEE) covers the payload only; a mismatch means the stream is
// corrupt and the connection must be dropped — frames carry no resync
// markers. The payload is one message: a one-byte type tag followed by
// type-specific fields encoded with uvarints, length-prefixed strings, and
// the value package's row codec (the same primitives the WAL uses).
//
// The protocol is strictly request/response: the client sends one request
// frame and reads exactly one response frame. Sessions are connection-scoped
// — an interactive transaction opened with MsgBegin lives on its connection
// and dies with it.
//
// One routine writes frames and one reads them. A frame goes out as a single
// Write of header and payload encoded into one buffer, and frames come in
// through a bufio.Reader into a payload buffer. A Conn owns both buffers and
// the reader for one connection and reuses them frame after frame; a buffer
// that grew past maxKeptBuffer for one large frame is dropped afterwards.
// Decoding copies everything it keeps, so a decoded Message never aliases
// the payload buffer the next frame overwrites.
package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// MsgType tags a protocol message.
type MsgType uint8

// Request messages (client -> server).
const (
	MsgPing MsgType = iota + 1
	// MsgQuery and MsgExec carry one SQL statement plus bound arguments.
	// The split mirrors db.Query/db.Exec and exists for call-site clarity;
	// the server treats both identically.
	MsgQuery
	MsgExec
	// MsgBegin opens the session's interactive transaction; MsgCommit and
	// MsgRollback close it. At most one transaction is open per session.
	MsgBegin
	MsgCommit
	MsgRollback
	// MsgStats asks for the server's Stats (see StatFields).
	MsgStats
	// MsgSubscribe turns the session into a replication subscriber: the
	// server streams MsgSnapshotChunk (when bootstrapping) and MsgLogBatch
	// frames from FromSeq onward until the connection closes. With Bootstrap
	// set, FromSeq is ignored and the server ships a full snapshot first.
	MsgSubscribe
	// MsgPromote asks a replica server to promote itself to a writable
	// primary at the next epoch (Epoch 0 lets the server pick current+1).
	// Answered with MsgPromoted or a typed error.
	MsgPromote
	// MsgAck flows client->server on an established Subscribe stream: the
	// subscriber confirms it has applied every commit up to Seq under Epoch.
	// Acks feed the primary's quorum watermark and per-subscriber lag stats.
	MsgAck
)

// Response messages (server -> client).
const (
	MsgPong MsgType = iota + 64
	// MsgResult carries a query result set or a rows-affected count.
	MsgResult
	// MsgTxState acknowledges Begin (TxnID), Commit (Seq), or Rollback.
	MsgTxState
	MsgStatsResult
	MsgError
	// MsgLogBatch carries replication stream entries (committed CDC records
	// and DDL statements in commit order) plus the primary's current commit
	// sequence; an empty batch is a heartbeat carrying only PrimarySeq.
	MsgLogBatch
	// MsgSnapshotChunk carries one piece of a bootstrap snapshot (the
	// compressed EncodeSnapshot image); Last marks the final chunk and Seq
	// the commit sequence the snapshot captures.
	MsgSnapshotChunk
	// MsgPromoted acknowledges MsgPromote: Epoch is the new epoch the server
	// now serves writes under, Seq the promotion point (its applied commit
	// sequence — the new timeline's divergence point).
	MsgPromoted
)

// ErrCode classifies a server-side failure so clients can react typedly
// (retry on conflict, back off on busy, reconnect on shutdown).
type ErrCode uint8

// Error codes.
const (
	CodeInternal ErrCode = iota + 1
	// CodeBadRequest: malformed or out-of-place message.
	CodeBadRequest
	// CodeSQL: parse/plan/execution failure of the statement itself.
	CodeSQL
	// CodeConflict: OCC serialization conflict — the transaction aborted and
	// the client should retry it from the top.
	CodeConflict
	// CodeTxnState: Begin inside an open transaction, or Commit/Rollback
	// without one.
	CodeTxnState
	// CodeTxnExpired: the interactive transaction exceeded the server's
	// transaction deadline and was rolled back.
	CodeTxnExpired
	// CodeBusy: connection limit reached and the admission queue is full (or
	// the queue wait timed out). Back off and redial.
	CodeBusy
	// CodeShutdown: the server is draining; no new work is admitted.
	CodeShutdown
	// CodeReadOnly: a write or DDL statement reached a read-only replica;
	// route it to the primary.
	CodeReadOnly
	// CodeLogTruncated: the requested replication position is no longer in
	// the primary's retained log window (or predates what the primary can
	// prove it shipped); the subscriber must re-bootstrap from a snapshot.
	CodeLogTruncated
	// CodeFenced: this node's replication epoch is stale — a newer primary
	// has been promoted. A fenced node can neither ack writes nor feed
	// subscribers; clients must re-discover the current primary.
	CodeFenced
	// CodeQuorumUnavailable: the commit applied locally but was not
	// acknowledged by the configured replica quorum within the timeout. The
	// commit's fate on the surviving timeline is unknown until the cluster
	// heals; clients must not assume it is durable.
	CodeQuorumUnavailable
	// CodeReadOnlyTxn: a write statement ran inside a read-only snapshot
	// transaction (a declared read-only transaction or a time-travel
	// transaction at a historical snapshot). Unlike CodeReadOnly — the whole
	// node rejects writes — this is a property of the transaction: retry the
	// write in a normal read-write transaction.
	CodeReadOnlyTxn
)

// String names the code for error text.
func (c ErrCode) String() string {
	switch c {
	case CodeInternal:
		return "internal"
	case CodeBadRequest:
		return "bad-request"
	case CodeSQL:
		return "sql"
	case CodeConflict:
		return "conflict"
	case CodeTxnState:
		return "txn-state"
	case CodeTxnExpired:
		return "txn-expired"
	case CodeBusy:
		return "busy"
	case CodeShutdown:
		return "shutdown"
	case CodeReadOnly:
		return "read-only"
	case CodeLogTruncated:
		return "log-truncated"
	case CodeFenced:
		return "fenced"
	case CodeQuorumUnavailable:
		return "quorum-unavailable"
	case CodeReadOnlyTxn:
		return "read-only-txn"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// ServerError is a typed failure reported by the server. Clients receive it
// from every API call that got an MsgError response.
type ServerError struct {
	Code ErrCode
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("trod-server: %s: %s", e.Code, e.Msg)
}

// IsCode reports whether err is a ServerError with the given code.
func IsCode(err error, code ErrCode) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Code == code
}

// IsConflict reports a retryable OCC serialization conflict.
func IsConflict(err error) bool { return IsCode(err, CodeConflict) }

// IsBusy reports an admission-control rejection.
func IsBusy(err error) bool { return IsCode(err, CodeBusy) }

// IsTxnExpired reports a deadline-aborted interactive transaction.
func IsTxnExpired(err error) bool { return IsCode(err, CodeTxnExpired) }

// IsReadOnly reports a write rejected by a read-only replica.
func IsReadOnly(err error) bool { return IsCode(err, CodeReadOnly) }

// IsLogTruncated reports a replication position outside the primary's
// retained log window.
func IsLogTruncated(err error) bool { return IsCode(err, CodeLogTruncated) }

// IsFenced reports a request rejected by a node whose replication epoch is
// stale (a newer primary exists).
func IsFenced(err error) bool { return IsCode(err, CodeFenced) }

// IsQuorumUnavailable reports a commit that could not gather replica-quorum
// acknowledgement in time.
func IsQuorumUnavailable(err error) bool { return IsCode(err, CodeQuorumUnavailable) }

// IsReadOnlyTxn reports a write attempted inside a read-only snapshot
// transaction (declared read-only, or time travel at a historical snapshot).
func IsReadOnlyTxn(err error) bool { return IsCode(err, CodeReadOnlyTxn) }

// Message is one protocol message; Type selects which fields are meaningful
// (mirroring wal.Record's flat-record idiom).
type Message struct {
	Type MsgType

	// MsgQuery / MsgExec.
	SQL  string
	Args value.Row

	// MsgResult.
	Columns      []string
	Rows         []value.Row
	RowsAffected int64

	// MsgTxState.
	TxnID uint64
	Seq   uint64

	// MsgStatsResult. A nil Stats encodes as all zeroes.
	Stats *Stats

	// MsgError.
	Code ErrCode
	Err  string

	// MsgSubscribe. FromSeq is the subscriber's applied commit sequence;
	// Bootstrap requests a full snapshot instead of log catch-up.
	FromSeq   uint64
	Bootstrap bool

	// MsgLogBatch. PrimarySeq is the primary's commit sequence when the
	// batch was cut (heartbeats carry it with no entries).
	Entries    []LogEntry
	PrimarySeq uint64

	// MsgSnapshotChunk. Data is one piece of the compressed snapshot image;
	// Last marks the final chunk, whose Seq field (shared with MsgTxState)
	// carries the snapshot's commit sequence.
	Data []byte
	Last bool

	// Epoch is the replication epoch of the history a frame belongs to.
	// Carried by MsgSubscribe (the subscriber's epoch), MsgLogBatch and
	// MsgSnapshotChunk (the source's epoch), MsgAck (the acker's epoch),
	// MsgPromote (the requested epoch; 0 = current+1), and MsgPromoted (the
	// granted epoch). Receivers reject frames from a stale epoch with a
	// typed fenced error.
	Epoch uint64

	// TraceID/ParentSpan are the request's trace context (MsgQuery,
	// MsgExec, MsgBegin, MsgCommit, MsgRollback). They ride as trailing
	// fields appended only when TraceID is nonzero: an untraced request is
	// byte-identical to the pre-tracing encoding, and old decoders ignore
	// trailing bytes, so tracing-unaware peers interoperate in both
	// directions. ParentSpan is the sender's span ID the server-side tree
	// hangs under.
	TraceID    uint64
	ParentSpan uint64
}

// LogEntry is one replication stream element: either a committed CDC record
// or a DDL statement, in the primary's serialization order. Exactly one of
// the two is meaningful; DDL entries have a non-empty DDL string.
type LogEntry struct {
	DDL    string
	Commit storage.CommitRecord

	// EncodedCommit is an encode-side fast path: when non-nil it must be
	// wal.EncodeCommit(nil, Commit), and EncodeMessage writes it verbatim
	// instead of re-serializing the record. The replication source fills it
	// while sizing batches, so each commit is serialized once per
	// subscriber, not twice. Never set by DecodeMessage.
	EncodedCommit []byte

	// TraceID, when nonzero, is the trace of the request that produced
	// this commit; the entry is shipped with the traced entry kind and the
	// replica tags its apply spans with it, correlating replica-side work
	// back to the originating request.
	TraceID uint64
}

// IsDDL reports whether the entry carries a DDL statement.
func (e *LogEntry) IsDDL() bool { return e.DDL != "" }

// MaxFrame is the default cap on a frame's payload size; a peer announcing
// more is treated as a corrupt stream.
const MaxFrame = 16 << 20

// MaxReplFrame is the frame cap on replication streams, sized so a single
// large committed transaction (one CommitRecord is never split across
// frames — replicas apply it atomically) still fits. Subscribers read with
// this limit; snapshot bootstraps are chunked and never need it.
const MaxReplFrame = 64 << 20

const frameHeader = 8 // u32 length + u32 crc

// maxResultColumns caps a result set's column count at decode; real SELECTs
// project at most a few hundred columns, and the cap keeps a crafted count
// from amplifying one payload byte into a string header each.
const maxResultColumns = 1 << 16

var crcTable = crc32.MakeTable(crc32.IEEE)

// ErrFrameCorrupt reports a CRC mismatch or an impossible frame length; the
// connection is unusable afterwards.
var ErrFrameCorrupt = errors.New("protocol: corrupt frame")

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(src []byte, off int) (string, int, error) {
	n, used := binary.Uvarint(src[off:])
	if used <= 0 {
		return "", 0, fmt.Errorf("protocol: bad string header")
	}
	off += used
	// Compare in uint64 space: a crafted length near 2^64 must not wrap the
	// int bound check into a panic (frames come from untrusted peers).
	if n > uint64(len(src)-off) {
		return "", 0, fmt.Errorf("protocol: truncated string")
	}
	return string(src[off : off+int(n)]), off + int(n), nil
}

func readUvarint(src []byte, off int) (uint64, int, error) {
	v, used := binary.Uvarint(src[off:])
	if used <= 0 {
		return 0, 0, fmt.Errorf("protocol: bad uvarint")
	}
	return v, off + used, nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// readBytes returns a sub-slice of src (no copy); callers that retain the
// bytes past the payload's lifetime must copy.
func readBytes(src []byte, off int) ([]byte, int, error) {
	n, used := binary.Uvarint(src[off:])
	if used <= 0 {
		return nil, 0, fmt.Errorf("protocol: bad bytes header")
	}
	off += used
	if n > uint64(len(src)-off) {
		return nil, 0, fmt.Errorf("protocol: truncated bytes")
	}
	return src[off : off+int(n)], off + int(n), nil
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func readBool(src []byte, off int) (bool, int, error) {
	if off >= len(src) {
		return false, 0, fmt.Errorf("protocol: truncated bool")
	}
	return src[off] == 1, off + 1, nil
}

// EncodeMessage appends m's payload encoding (type byte + fields) to dst.
func EncodeMessage(dst []byte, m *Message) []byte {
	dst = append(dst, byte(m.Type))
	switch m.Type {
	case MsgQuery, MsgExec:
		dst = appendString(dst, m.SQL)
		dst = value.EncodeRow(dst, m.Args)
		dst = appendTraceContext(dst, m)
	case MsgBegin, MsgCommit, MsgRollback:
		dst = appendTraceContext(dst, m)
	case MsgResult:
		dst = binary.AppendUvarint(dst, uint64(len(m.Columns)))
		for _, c := range m.Columns {
			dst = appendString(dst, c)
		}
		dst = binary.AppendUvarint(dst, uint64(len(m.Rows)))
		for _, r := range m.Rows {
			dst = value.EncodeRow(dst, r)
		}
		dst = binary.AppendUvarint(dst, uint64(m.RowsAffected))
	case MsgTxState:
		dst = binary.AppendUvarint(dst, m.TxnID)
		dst = binary.AppendUvarint(dst, m.Seq)
	case MsgStatsResult:
		st := m.Stats
		if st == nil {
			st = &noStats
		}
		for i := range StatFields {
			dst = binary.AppendUvarint(dst, *StatFields[i].Field(st))
		}
		dst = binary.AppendUvarint(dst, uint64(len(st.SubscriberLags)))
		for _, l := range st.SubscriberLags {
			dst = binary.AppendUvarint(dst, l.AckedSeq)
			dst = binary.AppendUvarint(dst, l.LagSeqs)
			dst = binary.AppendUvarint(dst, l.LastAckAgeMs)
		}
	case MsgError:
		dst = append(dst, byte(m.Code))
		dst = appendString(dst, m.Err)
	case MsgSubscribe:
		dst = binary.AppendUvarint(dst, m.FromSeq)
		dst = appendBool(dst, m.Bootstrap)
		dst = binary.AppendUvarint(dst, m.Epoch)
	case MsgAck:
		dst = binary.AppendUvarint(dst, m.Seq)
		dst = binary.AppendUvarint(dst, m.Epoch)
	case MsgPromote:
		dst = binary.AppendUvarint(dst, m.Epoch)
	case MsgPromoted:
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = binary.AppendUvarint(dst, m.Seq)
	case MsgLogBatch:
		dst = binary.AppendUvarint(dst, uint64(len(m.Entries)))
		for i := range m.Entries {
			e := &m.Entries[i]
			switch {
			case e.IsDDL():
				dst = append(dst, entryDDL)
				dst = appendString(dst, e.DDL)
			case e.TraceID != 0:
				dst = append(dst, entryCommitTraced)
				dst = binary.AppendUvarint(dst, e.TraceID)
				if e.EncodedCommit != nil {
					dst = appendBytes(dst, e.EncodedCommit)
				} else {
					dst = appendBytes(dst, wal.EncodeCommit(nil, e.Commit))
				}
			default:
				dst = append(dst, entryCommit)
				if e.EncodedCommit != nil {
					dst = appendBytes(dst, e.EncodedCommit)
				} else {
					dst = appendBytes(dst, wal.EncodeCommit(nil, e.Commit))
				}
			}
		}
		dst = binary.AppendUvarint(dst, m.PrimarySeq)
		dst = binary.AppendUvarint(dst, m.Epoch)
	case MsgSnapshotChunk:
		dst = appendBytes(dst, m.Data)
		dst = binary.AppendUvarint(dst, m.Seq)
		dst = appendBool(dst, m.Last)
		dst = binary.AppendUvarint(dst, m.Epoch)
	}
	return dst
}

// Log-batch entry kinds.
const (
	entryCommit = 0
	entryDDL    = 1
	// entryCommitTraced is a commit entry prefixed with the originating
	// request's trace ID; sources emit it only for commits whose trace is
	// being recorded, so untraced streams are byte-identical to before.
	entryCommitTraced = 2
)

// appendTraceContext appends the optional trailing trace context. Nothing
// is written for an untraced message — zero bytes on the wire — and
// decodeTraceContext reads the fields back only if the payload has bytes
// left, so tracing-unaware peers interoperate unchanged.
func appendTraceContext(dst []byte, m *Message) []byte {
	if m.TraceID == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, m.TraceID)
	return binary.AppendUvarint(dst, m.ParentSpan)
}

// decodeTraceContext probes for the trailing trace context on a request
// payload. A missing ParentSpan after a present TraceID is corrupt: the two
// are always written together. So is a present TraceID of zero, which no
// encoder writes.
func decodeTraceContext(m *Message, payload []byte, off int) (int, error) {
	if off >= len(payload) {
		return off, nil
	}
	var err error
	if m.TraceID, off, err = readUvarint(payload, off); err != nil {
		return 0, err
	}
	if m.TraceID == 0 {
		return 0, fmt.Errorf("protocol: trace context with zero trace ID")
	}
	if m.ParentSpan, off, err = readUvarint(payload, off); err != nil {
		return 0, err
	}
	return off, nil
}

// preallocCap bounds a decode-side slice preallocation derived from an
// attacker-controlled count: real counts still come out in one allocation,
// crafted ones grow via append and fail on the first short element.
func preallocCap(n, max uint64) uint64 {
	if n > max {
		return max
	}
	return n
}

// DecodeMessage parses one payload produced by EncodeMessage.
func DecodeMessage(payload []byte) (*Message, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("protocol: empty payload")
	}
	m := &Message{Type: MsgType(payload[0])}
	off := 1
	var err error
	switch m.Type {
	case MsgPing, MsgPong, MsgStats:
	case MsgBegin, MsgCommit, MsgRollback:
		if off, err = decodeTraceContext(m, payload, off); err != nil {
			return nil, err
		}
	case MsgQuery, MsgExec:
		if m.SQL, off, err = readString(payload, off); err != nil {
			return nil, err
		}
		var used int
		if m.Args, used, err = value.DecodeRow(payload[off:]); err != nil {
			return nil, fmt.Errorf("protocol: args: %w", err)
		}
		off += used
		if off, err = decodeTraceContext(m, payload, off); err != nil {
			return nil, err
		}
	case MsgResult:
		var n uint64
		if n, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
		// Counts are attacker-controlled; every column/row costs at least
		// one payload byte, so a count beyond the remaining bytes is corrupt
		// — reject it before allocating anything proportional to it. The
		// absolute cap bounds the per-entry allocation amplification (a
		// one-byte claimed column materializes a 16-byte string header).
		if n > uint64(len(payload)-off) || n > maxResultColumns {
			return nil, fmt.Errorf("protocol: column count %d exceeds payload or limit", n)
		}
		m.Columns = make([]string, n)
		for i := range m.Columns {
			if m.Columns[i], off, err = readString(payload, off); err != nil {
				return nil, err
			}
		}
		if n, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
		if n > uint64(len(payload)-off) {
			return nil, fmt.Errorf("protocol: row count %d exceeds payload", n)
		}
		// Cap the preallocation: a row header is ~24x the one-byte wire
		// minimum, so a crafted count that fits the byte check could still
		// amplify a frame into hundreds of megabytes of slice capacity.
		m.Rows = make([]value.Row, 0, preallocCap(n, 4096))
		for i := uint64(0); i < n; i++ {
			row, used, err := value.DecodeRow(payload[off:])
			if err != nil {
				return nil, fmt.Errorf("protocol: row %d: %w", i, err)
			}
			m.Rows = append(m.Rows, row)
			off += used
		}
		var ra uint64
		if ra, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
		m.RowsAffected = int64(ra)
	case MsgTxState:
		if m.TxnID, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
		if m.Seq, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
	case MsgStatsResult:
		st := &Stats{}
		m.Stats = st
		for i := range StatFields {
			if *StatFields[i].Field(st), off, err = readUvarint(payload, off); err != nil {
				return nil, err
			}
		}
		var n uint64
		if n, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
		// Every subscriber entry costs at least three payload bytes; reject
		// counts the remaining bytes cannot hold before allocating for them
		// (same uint64-space hardening as MsgResult/MsgLogBatch counts).
		if n > uint64(len(payload)-off)/3 {
			return nil, fmt.Errorf("protocol: subscriber count %d exceeds payload", n)
		}
		st.SubscriberLags = make([]SubscriberLag, 0, preallocCap(n, 4096))
		for i := uint64(0); i < n; i++ {
			var l SubscriberLag
			if l.AckedSeq, off, err = readUvarint(payload, off); err != nil {
				return nil, err
			}
			if l.LagSeqs, off, err = readUvarint(payload, off); err != nil {
				return nil, err
			}
			if l.LastAckAgeMs, off, err = readUvarint(payload, off); err != nil {
				return nil, err
			}
			st.SubscriberLags = append(st.SubscriberLags, l)
		}
	case MsgError:
		if off >= len(payload) {
			return nil, fmt.Errorf("protocol: truncated error")
		}
		m.Code = ErrCode(payload[off])
		off++
		if m.Err, off, err = readString(payload, off); err != nil {
			return nil, err
		}
	case MsgSubscribe:
		if m.FromSeq, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
		if m.Bootstrap, off, err = readBool(payload, off); err != nil {
			return nil, err
		}
		if m.Epoch, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
	case MsgAck:
		if m.Seq, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
		if m.Epoch, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
	case MsgPromote:
		if m.Epoch, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
	case MsgPromoted:
		if m.Epoch, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
		if m.Seq, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
	case MsgLogBatch:
		var n uint64
		if n, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
		// Every entry costs at least two payload bytes; reject counts the
		// remaining bytes cannot hold before allocating for them. The
		// preallocation is additionally capped: entry structs are ~28x the
		// two-byte wire minimum, so a crafted count that passes the byte
		// check could still amplify one frame into gigabytes of capacity.
		if n > uint64(len(payload)-off)/2 {
			return nil, fmt.Errorf("protocol: entry count %d exceeds payload", n)
		}
		m.Entries = make([]LogEntry, 0, preallocCap(n, 4096))
		for i := uint64(0); i < n; i++ {
			if off >= len(payload) {
				return nil, fmt.Errorf("protocol: truncated entry %d", i)
			}
			kind := payload[off]
			off++
			var e LogEntry
			switch kind {
			case entryDDL:
				if e.DDL, off, err = readString(payload, off); err != nil {
					return nil, err
				}
				if e.DDL == "" {
					return nil, fmt.Errorf("protocol: empty DDL entry")
				}
			case entryCommit, entryCommitTraced:
				if kind == entryCommitTraced {
					if e.TraceID, off, err = readUvarint(payload, off); err != nil {
						return nil, err
					}
					if e.TraceID == 0 {
						return nil, fmt.Errorf("protocol: traced entry %d with zero trace ID", i)
					}
				}
				var body []byte
				if body, off, err = readBytes(payload, off); err != nil {
					return nil, err
				}
				if e.Commit, err = wal.DecodeCommit(body); err != nil {
					return nil, fmt.Errorf("protocol: entry %d: %w", i, err)
				}
			default:
				return nil, fmt.Errorf("protocol: unknown log entry kind %d", kind)
			}
			m.Entries = append(m.Entries, e)
		}
		if m.PrimarySeq, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
		if m.Epoch, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
	case MsgSnapshotChunk:
		var body []byte
		if body, off, err = readBytes(payload, off); err != nil {
			return nil, err
		}
		m.Data = append([]byte(nil), body...)
		if m.Seq, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
		if m.Last, off, err = readBool(payload, off); err != nil {
			return nil, err
		}
		if m.Epoch, off, err = readUvarint(payload, off); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("protocol: unknown message type 0x%02x", payload[0])
	}
	_ = off
	return m, nil
}

// ErrFrameTooLarge reports a message whose encoding exceeds MaxFrame; it is
// returned before any bytes are written, so the stream stays usable and the
// sender can answer with a typed error instead.
var ErrFrameTooLarge = errors.New("protocol: message exceeds the frame size cap")

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, m *Message) error {
	return WriteMessageLimit(w, m, MaxFrame)
}

// WriteMessageLimit is WriteMessage with an explicit frame cap (replication
// streams use MaxReplFrame; both peers must agree on the limit).
func WriteMessageLimit(w io.Writer, m *Message, maxFrame int) error {
	_, err := writeFrame(w, make([]byte, 0, oneOffBuffer), m, maxFrame)
	return err
}

// ReadMessage reads and verifies one frame, then decodes its message.
// maxFrame <= 0 applies the MaxFrame default. io.EOF at a frame boundary is
// returned as-is (clean disconnect); a partial frame is ErrUnexpectedEOF.
func ReadMessage(r io.Reader, maxFrame int) (*Message, error) {
	m, _, err := readFrame(r, make([]byte, 0, oneOffBuffer), maxFrame)
	return m, err
}

// oneOffBuffer sizes the buffer of a WriteMessage or ReadMessage call made
// without a Conn, so that a typical frame costs one allocation.
const oneOffBuffer = 128

// maxKeptBuffer caps the frame buffers a Conn keeps between frames. A buffer
// that grew past it for one large frame (a big result set, a snapshot chunk,
// a log batch) is dropped once that frame is done instead of holding its
// peak size for the rest of the connection's life.
const maxKeptBuffer = 64 << 10

// writeFrame encodes m's header and payload into buf, reusing its capacity,
// and hands the frame to w in one Write. An encoding over maxFrame writes
// nothing and returns ErrFrameTooLarge. The grown buffer is returned for
// reuse either way.
func writeFrame(w io.Writer, buf []byte, m *Message, maxFrame int) ([]byte, error) {
	buf = append(buf[:0], make([]byte, frameHeader)...)
	buf = EncodeMessage(buf, m)
	payload := buf[frameHeader:]
	if len(payload) > maxFrame {
		return buf, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	_, err := w.Write(buf)
	return buf, err
}

// readFrame reads one frame from r into buf, reusing its capacity, verifies
// it and decodes its message; the buffer is returned for reuse. The decoded
// message copies what it keeps, so buf may be overwritten right away.
func readFrame(r io.Reader, buf []byte, maxFrame int) (*Message, []byte, error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	buf = sized(buf, frameHeader)
	// ReadFull reports io.EOF only when no byte arrived, so a clean
	// disconnect between frames stays io.EOF and a cut header is
	// ErrUnexpectedEOF.
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	n := binary.BigEndian.Uint32(buf[0:4])
	sum := binary.BigEndian.Uint32(buf[4:8])
	if n == 0 || n > uint32(maxFrame) {
		return nil, buf, fmt.Errorf("%w: payload length %d", ErrFrameCorrupt, n)
	}
	buf = sized(buf, int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, buf, err
	}
	if crc32.Checksum(buf, crcTable) != sum {
		return nil, buf, fmt.Errorf("%w: CRC mismatch", ErrFrameCorrupt)
	}
	m, err := DecodeMessage(buf)
	return m, buf, err
}

// sized returns buf resliced to n bytes, allocating only when its capacity
// is short.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// kept returns buf emptied for the next frame, or nil when it grew past
// maxKeptBuffer.
func kept(buf []byte) []byte {
	if cap(buf) > maxKeptBuffer {
		return nil
	}
	return buf[:0]
}

// Conn is one end of a framed connection. It reads frames through its own
// bufio.Reader and writes each frame with one Write, reusing its read and
// write buffers across frames. One goroutine may read while another writes;
// neither side is safe for concurrent use by itself.
type Conn struct {
	net.Conn // deadlines and Close; Read goes through the buffer below

	br   *bufio.Reader
	rbuf []byte // payload of the last frame read
	wbuf []byte // the last frame written
}

// NewConn wraps nc. Every later read of nc must go through the Conn, or
// bytes it has already buffered are skipped.
func NewConn(nc net.Conn) *Conn {
	return &Conn{Conn: nc, br: bufio.NewReader(nc)}
}

// Read reads through the Conn's buffer, so bytes it holds are never skipped.
func (c *Conn) Read(p []byte) (int, error) { return c.br.Read(p) }

// Buffered reports how many bytes have arrived but not yet been consumed.
func (c *Conn) Buffered() int { return c.br.Buffered() }

// ReadMessage reads one frame (see the package function of the same name).
func (c *Conn) ReadMessage(maxFrame int) (*Message, error) {
	m, buf, err := readFrame(c.br, c.rbuf, maxFrame)
	c.rbuf = kept(buf)
	return m, err
}

// WriteMessage writes m as one frame of at most maxFrame payload bytes.
func (c *Conn) WriteMessage(m *Message, maxFrame int) error {
	buf, err := writeFrame(c.Conn, c.wbuf, m, maxFrame)
	c.wbuf = kept(buf)
	return err
}
