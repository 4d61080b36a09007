package protocol

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"
)

// fuzzMaxFrame is the frame cap FuzzReadMessage reads with: small, so that
// frames announcing more than it are common inputs.
const fuzzMaxFrame = 1 << 10

// maxDecodeAmplification bounds the bytes a decode may allocate per input
// byte. Crafted counts are checked against the bytes left before anything
// is sized by them, so a decode allocates a fixed multiple of its input:
// a one-byte value becomes a 32-byte Value, a two-byte log entry a
// LogEntry, and so on.
const maxDecodeAmplification = 128

// allocSlack covers allocations that do not scale with the input: the
// connection's read-ahead buffer, the Message itself, error values.
const allocSlack = 16 << 10

func goldenSeeds(f *testing.F, payloadOnly bool) {
	var all []byte
	for _, g := range goldenFrames() {
		raw, err := hex.DecodeString(g.hex)
		if err != nil {
			f.Fatal(err)
		}
		all = append(all, raw...)
		if payloadOnly {
			raw = raw[frameHeader:]
		}
		f.Add(raw)
	}
	if !payloadOnly {
		f.Add(all) // every frame back to back on one connection
	}
}

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkReencodes asserts that an accepted message re-encodes, and that the
// encoding decodes to an equal message.
func checkReencodes(t *testing.T, m *Message) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessageLimit(&buf, m, MaxReplFrame); err != nil {
		t.Fatalf("accepted %v does not re-encode: %v", m.Type, err)
	}
	again, err := ReadMessage(&buf, MaxReplFrame)
	if err != nil {
		t.Fatalf("re-encoded %v does not decode: %v", m.Type, err)
	}
	if !reflect.DeepEqual(m, again) {
		t.Fatalf("%v changed through re-encoding:\n first %+v\nsecond %+v", m.Type, m, again)
	}
}

// FuzzReadMessage feeds a byte stream to one Conn and reads frames until an
// error, through the same reused buffers a server session uses. No input may
// panic, grow the payload buffer past the frame cap, or allocate more than a
// fixed multiple of the cap per frame, and every accepted message must
// survive re-encoding.
func FuzzReadMessage(f *testing.F) {
	goldenSeeds(f, false)
	f.Fuzz(func(t *testing.T, stream []byte) {
		c := NewConn(&bufferConn{r: bytes.NewReader(stream)})
		for {
			var m *Message
			var err error
			n := allocated(func() { m, err = c.ReadMessage(fuzzMaxFrame) })
			if n > maxDecodeAmplification*fuzzMaxFrame+allocSlack {
				t.Fatalf("one frame allocated %d bytes under a %d-byte cap", n, fuzzMaxFrame)
			}
			if cap(c.rbuf) > fuzzMaxFrame {
				t.Fatalf("payload buffer grew to %d bytes under a %d-byte cap", cap(c.rbuf), fuzzMaxFrame)
			}
			if err != nil {
				return
			}
			checkReencodes(t, m)
		}
	})
}

// FuzzDecodeMessage decodes one payload. No input may panic or allocate more
// than a fixed multiple of its length, and every accepted message must
// survive re-encoding.
func FuzzDecodeMessage(f *testing.F) {
	goldenSeeds(f, true)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var m *Message
		var err error
		n := allocated(func() { m, err = DecodeMessage(payload) })
		if n > uint64(maxDecodeAmplification*len(payload)+allocSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), n)
		}
		if err == nil {
			checkReencodes(t, m)
		}
	})
}
