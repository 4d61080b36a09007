package protocol

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// goldenFrame is one message and the exact frame bytes it must encode to.
type goldenFrame struct {
	name string
	msg  *Message
	hex  string
}

// goldenStats gives every Stats field a distinct value, plus two subscriber
// lags.
func goldenStats() *Stats {
	st := &Stats{SubscriberLags: []SubscriberLag{
		{AckedSeq: 898, LagSeqs: 7, LastAckAgeMs: 120},
		{AckedSeq: 905, LagSeqs: 0, LastAckAgeMs: 4},
	}}
	for i := range StatFields {
		*StatFields[i].Field(st) = uint64(i+1) << i
	}
	return st
}

// goldenFrames lists one frame of every message type, request types with
// and without trace context. The bytes were captured from the
// two-Write-per-frame codec this package had before frames became one
// buffered write, so they pin the wire format: peers built before and after
// that change interoperate, and the benchmark's bytes_per_op cannot move.
func goldenFrames() []goldenFrame {
	commit := storage.CommitRecord{Seq: 11, TxnID: 5, Changes: []storage.Change{
		{Table: "t", Key: "k1", Op: storage.OpInsert, After: value.Row{value.Int(1), value.Text("a")}},
		{Table: "t", Key: "k2", Op: storage.OpUpdate,
			Before: value.Row{value.Int(2), value.Text("b")},
			After:  value.Row{value.Int(2), value.Bytes([]byte{0, 9})}},
		{Table: "t", Key: "k3", Op: storage.OpDelete, Before: value.Row{value.Int(3), value.Null}},
	}}
	args := value.Row{value.Int(42), value.Text("naïve"), value.Bytes([]byte{0, 1, 255}),
		value.Float(2.5), value.Bool(true), value.Null}
	const point = "SELECT balance FROM accounts WHERE id = ?"
	const update = "UPDATE accounts SET balance = ? WHERE id = ?"
	updateArgs := value.Row{value.Int(-7), value.Int(1 << 40)}
	const tid, parent = 0xdeadbeefcafe, 17
	return []goldenFrame{
		{"ping", &Message{Type: MsgPing}, "00000001a505df1b01"},
		{"query", &Message{Type: MsgQuery, SQL: point, Args: args},
			"000000479e0ce9cd022953454c4543542062616c616e63652046524f4d206163636f756e7473205748455245206964203d203f06015403066e61c3af766505030001ff020000000000000440040200"},
		{"query_traced", &Message{Type: MsgQuery, SQL: point, Args: args, TraceID: tid, ParentSpan: parent},
			"0000004fcd740cca022953454c4543542062616c616e63652046524f4d206163636f756e7473205748455245206964203d203f06015403066e61c3af766505030001ff020000000000000440040200fe95bff7dbd53711"},
		{"exec", &Message{Type: MsgExec, SQL: update, Args: updateArgs},
			"00000038d5db32b8032c555044415445206163636f756e7473205345542062616c616e6365203d203f205748455245206964203d203f02010d01808080808040"},
		{"exec_traced", &Message{Type: MsgExec, SQL: update, Args: updateArgs, TraceID: tid, ParentSpan: parent},
			"00000040a018814e032c555044415445206163636f756e7473205345542062616c616e6365203d203f205748455245206964203d203f02010d01808080808040fe95bff7dbd53711"},
		{"begin", &Message{Type: MsgBegin}, "00000001d56f2b9404"},
		{"begin_traced", &Message{Type: MsgBegin, TraceID: tid, ParentSpan: parent}, "000000097ddc7e2904fe95bff7dbd53711"},
		{"commit", &Message{Type: MsgCommit}, "00000001a2681b0205"},
		{"commit_traced", &Message{Type: MsgCommit, TraceID: tid, ParentSpan: parent}, "000000096aa76a6a05fe95bff7dbd53711"},
		{"rollback", &Message{Type: MsgRollback}, "000000013b614ab806"},
		{"rollback_traced", &Message{Type: MsgRollback, TraceID: tid, ParentSpan: parent}, "00000009532a56af06fe95bff7dbd53711"},
		{"stats", &Message{Type: MsgStats}, "000000014c667a2e07"},
		{"subscribe", &Message{Type: MsgSubscribe, FromSeq: 1 << 40, Bootstrap: true, Epoch: 3}, "000000097cacedf4088080808080200103"},
		{"promote", &Message{Type: MsgPromote, Epoch: 9}, "00000002e9c711120909"},
		{"ack", &Message{Type: MsgAck, Seq: 41, Epoch: 2}, "00000003589ea2030a2902"},
		{"pong", &Message{Type: MsgPong}, "00000001a4deae1d40"},
		{"result", &Message{Type: MsgResult, Columns: []string{"id", "v"}, Rows: []value.Row{
			{value.Int(1), value.Text("a")},
			{value.Int(2), value.Null},
			{value.Float(2.5), value.Bool(true)},
			{value.Int(3), value.Bytes([]byte{7, 0, 7})},
		}, RowsAffected: 7},
			"0000002723b79af5410202696401760402010203016102010400020200000000000004400402020106050307000707"},
		{"result_affected", &Message{Type: MsgResult, RowsAffected: 1}, "0000000475ebd0d241000001"},
		{"tx_state", &Message{Type: MsgTxState, TxnID: 99, Seq: 1234}, "00000004901a25ea4263d209"},
		{"stats_result", &Message{Type: MsgStatsResult, Stats: goldenStats()},
			"000000a5c37d2c984301040c2050c001c003800880128028805880c00180a00380800780800f808020808044808090018080b002808080058080c00a808080168080802e80808060808080c801808080a003808080e006808080800e808080801d808080803c808080807c80808080800280808080900480808080c00880808080c01180808080802480808080804a808080808098018080808080b80280808080808005028207077889070004"},
		{"stats_result_empty", &Message{Type: MsgStatsResult},
			"0000002a908d0630430000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
		{"error", &Message{Type: MsgError, Code: CodeConflict, Err: "serialization conflict"},
			"00000019b3b4fb3944041673657269616c697a6174696f6e20636f6e666c696374"},
		{"log_batch", &Message{Type: MsgLogBatch, PrimarySeq: 12, Epoch: 4, Entries: []LogEntry{
			{DDL: "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"},
			{Commit: commit},
			{Commit: commit, TraceID: 555},
		}},
			"000000999e25e8364503012f435245415445205441424c4520742028696420494e5445474552205052494d415259204b45592c2076205445585429002f0b05030174026b3100020201020301610174026b320103020104030162020104050200090174026b3302010201060002ab042f0b05030174026b3100020201020301610174026b320103020104030162020104050200090174026b330201020106000c04"},
		{"log_batch_heartbeat", &Message{Type: MsgLogBatch, PrimarySeq: 99, Epoch: 4}, "00000004c4338b6e45006304"},
		{"snapshot_chunk", &Message{Type: MsgSnapshotChunk, Data: []byte{1, 2, 3, 0, 255}, Seq: 41, Last: true, Epoch: 6},
			"0000000afef9d62d460501020300ff290106"},
		{"promoted", &Message{Type: MsgPromoted, Epoch: 9, Seq: 1234}, "00000004e2849b2e4709d209"},
	}
}

// TestGoldenFrames: every message type encodes to exactly its pinned bytes,
// through the one-off WriteMessage and through a Conn whose buffers already
// hold earlier frames, and those bytes decode back to the message.
func TestGoldenFrames(t *testing.T) {
	frames := goldenFrames()
	seen := map[MsgType]bool{}
	var pipe bytes.Buffer
	c := NewConn(&bufferConn{w: &pipe})
	for _, g := range frames {
		seen[g.msg.Type] = true
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", g.name, err)
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, g.msg); err != nil {
			t.Fatalf("%s: write: %v", g.name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: WriteMessage wrote\n%x\nwant\n%x", g.name, buf.Bytes(), want)
		}
		pipe.Reset()
		if err := c.WriteMessage(g.msg, MaxReplFrame); err != nil {
			t.Fatalf("%s: Conn write: %v", g.name, err)
		}
		if !bytes.Equal(pipe.Bytes(), want) {
			t.Errorf("%s: Conn.WriteMessage wrote\n%x\nwant\n%x", g.name, pipe.Bytes(), want)
		}
		got, err := ReadMessage(bytes.NewReader(want), MaxReplFrame)
		if err != nil {
			t.Fatalf("%s: read: %v", g.name, err)
		}
		var again bytes.Buffer
		if err := WriteMessage(&again, got); err != nil || !bytes.Equal(again.Bytes(), want) {
			t.Errorf("%s: decoded message re-encodes to %x (err %v)", g.name, again.Bytes(), err)
		}
	}
	for typ := MsgPing; typ <= MsgAck; typ++ {
		if !seen[typ] {
			t.Errorf("request type %d has no golden frame", typ)
		}
	}
	for typ := MsgPong; typ <= MsgPromoted; typ++ {
		if !seen[typ] {
			t.Errorf("response type %d has no golden frame", typ)
		}
	}
}
