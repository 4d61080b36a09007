package value

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INTEGER", KindFloat: "FLOAT",
		KindText: "TEXT", KindBool: "BOOL", KindBytes: "BYTES",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null should be null")
	}
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int round-trip failed: %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float round-trip failed: %v", v)
	}
	if v := Text("hi"); v.Kind() != KindText || v.AsText() != "hi" {
		t.Errorf("Text round-trip failed: %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Errorf("Bool round-trip failed: %v", v)
	}
	src := []byte{1, 2, 3}
	v := Bytes(src)
	src[0] = 99 // mutate original; Value must be unaffected
	if got := v.AsBytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes not copied: %v", got)
	}
	if Int(7).AsFloat() != 7.0 {
		t.Error("AsFloat should widen ints")
	}
}

func TestFromGo(t *testing.T) {
	cases := []struct {
		in   any
		want Value
	}{
		{nil, Null},
		{true, Bool(true)},
		{int(3), Int(3)},
		{int8(3), Int(3)},
		{int16(3), Int(3)},
		{int32(3), Int(3)},
		{int64(3), Int(3)},
		{uint(3), Int(3)},
		{uint8(3), Int(3)},
		{uint16(3), Int(3)},
		{uint32(3), Int(3)},
		{uint64(3), Int(3)},
		{float32(1.5), Float(1.5)},
		{float64(1.5), Float(1.5)},
		{"x", Text("x")},
		{[]byte{9}, Bytes([]byte{9})},
		{Int(5), Int(5)},
	}
	for _, c := range cases {
		got, err := FromGo(c.in)
		if err != nil {
			t.Errorf("FromGo(%v): %v", c.in, err)
			continue
		}
		if !Equal(got, c.want) {
			t.Errorf("FromGo(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := FromGo(struct{}{}); err == nil {
		t.Error("FromGo(struct{}{}) should fail")
	}
	if _, err := FromGo(uint64(math.MaxUint64)); err == nil {
		t.Error("FromGo(MaxUint64) should overflow")
	}
}

func TestGoRoundTrip(t *testing.T) {
	vals := []Value{Null, Int(-3), Float(1.25), Text("t"), Bool(true), Bytes([]byte{0, 1})}
	for _, v := range vals {
		back, err := FromGo(v.Go())
		if err != nil {
			t.Fatalf("FromGo(%v.Go()): %v", v, err)
		}
		if !Equal(back, v) {
			t.Errorf("Go round-trip: %v -> %v", v, back)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null, Null, 0},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.0), 0},
		{Float(0.5), Int(1), -1},
		{Float(1.5), Int(1), 1},
		{Text("a"), Text("b"), -1},
		{Text("b"), Text("b"), 0},
		{Bool(false), Bool(true), -1},
		{Bytes([]byte{1}), Bytes([]byte{1, 0}), -1},
		{Bytes([]byte{2}), Bytes([]byte{1, 9}), 1},
		{Int(1), Text("a"), -1}, // kind ordering: numeric < text
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTristateLogic(t *testing.T) {
	// Truth tables for SQL three-valued logic.
	and := map[[2]Tristate]Tristate{
		{True, True}: True, {True, False}: False, {False, True}: False,
		{False, False}: False, {True, Unknown}: Unknown, {Unknown, True}: Unknown,
		{False, Unknown}: False, {Unknown, False}: False, {Unknown, Unknown}: Unknown,
	}
	for in, want := range and {
		if got := in[0].And(in[1]); got != want {
			t.Errorf("%v AND %v = %v, want %v", in[0], in[1], got, want)
		}
	}
	or := map[[2]Tristate]Tristate{
		{True, True}: True, {True, False}: True, {False, True}: True,
		{False, False}: False, {True, Unknown}: True, {Unknown, True}: True,
		{False, Unknown}: Unknown, {Unknown, False}: Unknown, {Unknown, Unknown}: Unknown,
	}
	for in, want := range or {
		if got := in[0].Or(in[1]); got != want {
			t.Errorf("%v OR %v = %v, want %v", in[0], in[1], got, want)
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("NOT truth table wrong")
	}
	if !True.Bool() || False.Bool() || Unknown.Bool() {
		t.Error("Bool reduction wrong")
	}
}

func TestCompareSQL(t *testing.T) {
	eq := func(c int) bool { return c == 0 }
	if CompareSQL(Null, Int(1), eq) != Unknown {
		t.Error("NULL = 1 should be Unknown")
	}
	if CompareSQL(Int(1), Int(1), eq) != True {
		t.Error("1 = 1 should be True")
	}
	if CompareSQL(Int(1), Int(2), eq) != False {
		t.Error("1 = 2 should be False")
	}
}

func TestArith(t *testing.T) {
	mustEq := func(op byte, a, b, want Value) {
		t.Helper()
		got, err := Arith(op, a, b)
		if err != nil {
			t.Fatalf("Arith(%c, %v, %v): %v", op, a, b, err)
		}
		if !Equal(got, want) {
			t.Errorf("Arith(%c, %v, %v) = %v, want %v", op, a, b, got, want)
		}
	}
	mustEq('+', Int(2), Int(3), Int(5))
	mustEq('-', Int(2), Int(3), Int(-1))
	mustEq('*', Int(4), Int(3), Int(12))
	mustEq('/', Int(7), Int(2), Int(3))
	mustEq('%', Int(7), Int(2), Int(1))
	mustEq('+', Float(1.5), Int(1), Float(2.5))
	mustEq('/', Float(1), Float(4), Float(0.25))
	mustEq('+', Text("ab"), Text("cd"), Text("abcd"))
	mustEq('+', Null, Int(1), Null) // NULL propagation

	if _, err := Arith('/', Int(1), Int(0)); err == nil {
		t.Error("int division by zero should error")
	}
	if _, err := Arith('/', Float(1), Float(0)); err == nil {
		t.Error("float division by zero should error")
	}
	if _, err := Arith('%', Int(1), Int(0)); err == nil {
		t.Error("int modulo by zero should error")
	}
	if _, err := Arith('*', Text("a"), Int(1)); err == nil {
		t.Error("text * int should error")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Int(-5), "-5"},
		{Float(1.5), "1.5"},
		{Text("o'hara"), "'o''hara'"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
		{Bytes([]byte{0xAB}), "X'ab'"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
	if Text("hi").Display() != "hi" || Null.Display() != "null" {
		t.Error("Display formatting wrong")
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{Int(1), Text("a")}
	cp := r.Clone()
	cp[0] = Int(2)
	if r[0].AsInt() != 1 {
		t.Error("Clone should not alias")
	}
	if !r.Equal(Row{Int(1), Text("a")}) {
		t.Error("Equal rows reported unequal")
	}
	if r.Equal(Row{Int(1)}) || r.Equal(Row{Int(1), Text("b")}) {
		t.Error("unequal rows reported equal")
	}
	if got := r.String(); got != "(1, 'a')" {
		t.Errorf("Row.String() = %q", got)
	}
}

// randomValue generates an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null
	case 1:
		return Int(r.Int63n(1000) - 500)
	case 2:
		return Float(float64(r.Int63n(2000)-1000) / 4)
	case 3:
		b := make([]byte, r.Intn(6))
		r.Read(b)
		return Text(string(b))
	case 4:
		return Bool(r.Intn(2) == 0)
	default:
		b := make([]byte, r.Intn(6))
		r.Read(b)
		return Bytes(b)
	}
}

// Generate implements quick.Generator for Value.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomValue(r))
}

// Property: key encoding preserves strict ordering.
func TestKeyEncodingOrderProperty(t *testing.T) {
	f := func(a, b Value) bool {
		ka := EncodeKey(nil, a)
		kb := EncodeKey(nil, b)
		c := Compare(a, b)
		bc := bytes.Compare(ka, kb)
		if c < 0 {
			return bc < 0
		}
		if c > 0 {
			return bc > 0
		}
		// Equal values of the same kind must encode identically.
		if a.Kind() == b.Kind() {
			return bc == 0
		}
		return true // 1 vs 1.0: ordering between them is unspecified but stable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: key encoding round-trips.
func TestKeyEncodingRoundTripProperty(t *testing.T) {
	f := func(v Value) bool {
		enc := EncodeKey(nil, v)
		got, n, err := DecodeKey(enc)
		return err == nil && n == len(enc) && Equal(got, v) && got.Kind() == v.Kind()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: row codec round-trips.
func TestRowCodecRoundTripProperty(t *testing.T) {
	f := func(a, b, c Value) bool {
		r := Row{a, b, c}
		enc := EncodeRow(nil, r)
		got, n, err := DecodeRow(enc)
		if err != nil || n != len(enc) {
			return false
		}
		if len(got) != len(r) {
			return false
		}
		for i := range r {
			if !Equal(got[i], r[i]) || got[i].Kind() != r[i].Kind() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: multi-column key encoding preserves tuple ordering.
func TestKeyRowOrderProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 Value) bool {
		ra, rb := Row{a1, a2}, Row{b1, b2}
		ka := EncodeKeyRow(nil, ra)
		kb := EncodeKeyRow(nil, rb)
		// Tuple compare.
		c := Compare(a1, b1)
		if c == 0 {
			c = Compare(a2, b2)
		}
		bc := bytes.Compare(ka, kb)
		if c < 0 && a1.Kind() == b1.Kind() && a2.Kind() == b2.Kind() {
			return bc < 0
		}
		if c > 0 && a1.Kind() == b1.Kind() && a2.Kind() == b2.Kind() {
			return bc > 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeKeyRow(t *testing.T) {
	r := Row{Int(5), Text("hello"), Null, Bool(true)}
	enc := EncodeKeyRow(nil, r)
	got, err := DecodeKeyRow(enc, len(r))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Errorf("DecodeKeyRow = %v, want %v", got, r)
	}
	if _, err := DecodeKeyRow(enc[:3], 4); err == nil {
		t.Error("truncated key row should fail")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeKey(nil); err == nil {
		t.Error("empty key should fail")
	}
	if _, _, err := DecodeKey([]byte{0x7F}); err == nil {
		t.Error("bad tag should fail")
	}
	if _, _, err := DecodeKey([]byte{tagNum, 1, 2}); err == nil {
		t.Error("truncated numeric should fail")
	}
	if _, _, err := DecodeKey([]byte{tagText, 'a'}); err == nil {
		t.Error("unterminated text should fail")
	}
	if _, _, err := DecodeRow([]byte{}); err == nil {
		t.Error("empty row should fail")
	}
	if _, _, err := DecodeRow([]byte{1, 0xEE}); err == nil {
		t.Error("bad kind byte should fail")
	}
	if _, _, err := DecodeRow([]byte{1, byte(KindText), 10, 'a'}); err == nil {
		t.Error("truncated text payload should fail")
	}
}

func TestTextKeyWithZeroBytes(t *testing.T) {
	v := Text("a\x00b\x00\x00c")
	enc := EncodeKey(nil, v)
	got, n, err := DecodeKey(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: %v (n=%d len=%d)", err, n, len(enc))
	}
	if !Equal(got, v) {
		t.Errorf("zero-byte text round trip failed: %q", got.AsText())
	}
	// Prefix must order before extension even with embedded zeros.
	a := EncodeKey(nil, Text("x\x00"))
	b := EncodeKey(nil, Text("x\x00y"))
	if bytes.Compare(a, b) >= 0 {
		t.Error("prefix with zero byte should order before extension")
	}
}

func TestNegativeFloatKeyOrdering(t *testing.T) {
	vals := []float64{math.Inf(-1), -100.5, -1, -0.25, 0, 0.25, 1, 100.5, math.Inf(1)}
	for i := 0; i < len(vals)-1; i++ {
		a := EncodeKey(nil, Float(vals[i]))
		b := EncodeKey(nil, Float(vals[i+1]))
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("float key ordering broken at %v < %v", vals[i], vals[i+1])
		}
	}
}

// layoutRow holds the values whose payloads share storage inside Value: every
// float that is not an ordinary number, both ends of the integer range, and
// empty, NULL and zero-carrying text and bytes.
func layoutRow() Row {
	return Row{Null, Int(-7), Int(math.MaxInt64), Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.Float64frombits(0x7ff8000000000001)), Float(2.5), Text(""), Text("a\x00b"), Bool(true), Bool(false),
		Bytes(nil), Bytes([]byte{}), Bytes([]byte{0, 0xff, 1})}
}

// TestValueIs32Bytes pins the layout every stored row, index tuple, wire row
// and executor tuple is made of.
func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 32 {
		t.Fatalf("Value is %d bytes, want at most 32", got)
	}
}

// TestCodecBytesUnchanged: the WAL, snapshot, wire and index-key bytes of a
// row do not depend on how Value lays its payloads out. The expected bytes
// were produced by the five-field layout this one replaced.
func TestCodecBytesUnchanged(t *testing.T) {
	const (
		wantRow = "0f00010d01feffffffffffffffff0102000000000000008002000000000000f07f02000000000000f0ff02010000000000f87f020000000000000440030003036100620402040005000500050300ff01"
		wantKey = "01023fe3ffffffffffff01fffffffffffffff902c3e0000000000000017fffffffffffffff0280000000000000000002fff00000000000000002000fffffffffffff0002fff80000000000010002c00400000000000000030000036100ff620000040104000500000500000500ffff010000"
	)
	if got := hex.EncodeToString(EncodeRow(nil, layoutRow())); got != wantRow {
		t.Errorf("EncodeRow bytes changed:\n got %s\nwant %s", got, wantRow)
	}
	if got := hex.EncodeToString(EncodeKeyRow(nil, layoutRow())); got != wantKey {
		t.Errorf("EncodeKeyRow bytes changed:\n got %s\nwant %s", got, wantKey)
	}
}

// TestLayoutRoundTrips: NaN payload bits, the sign of zero and the
// infinities survive the row codec bit for bit; empty text and empty bytes
// stay distinct from NULL and from each other through both codecs; AsBytes
// hands out a copy.
func TestLayoutRoundTrips(t *testing.T) {
	row := layoutRow()
	got, n, err := DecodeRow(EncodeRow(nil, row))
	if err != nil || n == 0 || len(got) != len(row) {
		t.Fatalf("DecodeRow: %v (%d values)", err, len(got))
	}
	keyed, err := DecodeKeyRow(EncodeKeyRow(nil, row), len(row))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range row {
		if got[i].Kind() != want.Kind() || keyed[i].Kind() != want.Kind() {
			t.Errorf("value %d (%v): kind %v through the row codec, %v through the key codec", i, want, got[i].Kind(), keyed[i].Kind())
		}
		switch want.Kind() {
		case KindFloat:
			if g, w := math.Float64bits(got[i].AsFloat()), math.Float64bits(want.AsFloat()); g != w {
				t.Errorf("value %d: float bits %016x, want %016x", i, g, w)
			}
			// The key codec orders -0 with +0 and keeps no NaN payload.
			if w := want.AsFloat(); w == w && keyed[i].AsFloat() != w {
				t.Errorf("value %d: %v through the key codec, want %v", i, keyed[i].AsFloat(), w)
			}
		case KindText:
			if got[i].AsText() != want.AsText() || keyed[i].AsText() != want.AsText() {
				t.Errorf("value %d: text %q / %q, want %q", i, got[i].AsText(), keyed[i].AsText(), want.AsText())
			}
		case KindBytes:
			if !bytes.Equal(got[i].AsBytes(), want.AsBytes()) || !bytes.Equal(keyed[i].AsBytes(), want.AsBytes()) {
				t.Errorf("value %d: bytes %x / %x, want %x", i, got[i].AsBytes(), keyed[i].AsBytes(), want.AsBytes())
			}
		default:
			if !Equal(got[i], want) || !Equal(keyed[i], want) {
				t.Errorf("value %d: %v / %v, want %v", i, got[i], keyed[i], want)
			}
		}
	}
	if Equal(Text(""), Null) || Equal(Bytes(nil), Null) || Equal(Text(""), Bytes(nil)) {
		t.Error("empty text, empty bytes and NULL must stay distinct")
	}
	if got := Bytes(nil).AsBytes(); got == nil || len(got) != 0 {
		t.Errorf("empty BYTES reads back as %#v, want an empty non-nil slice", got)
	}
	src := []byte{1, 2, 3}
	v := Bytes(src)
	src[0] = 9
	out := v.AsBytes()
	out[1] = 9
	if !bytes.Equal(v.AsBytes(), []byte{1, 2, 3}) {
		t.Errorf("BYTES value aliased its input or output: %x", v.AsBytes())
	}
	// Kinds that carry no float read as 0, never as another payload's bits.
	if f := Bool(true).AsFloat(); f != 0 {
		t.Errorf("Bool(true).AsFloat() = %v", f)
	}
}

// TestKeyOrderAcrossKinds: sorting by Compare and sorting the encoded keys
// bytewise give the same order, bytes compared as text is.
func TestKeyOrderAcrossKinds(t *testing.T) {
	vals := []Value{Null, Int(math.MinInt64), Int(-1), Float(-0.5), Int(0), Float(0.5), Int(1), Float(math.Inf(1)),
		Text(""), Text("a"), Text("a\x00"), Text("b"), Bool(false), Bool(true),
		Bytes(nil), Bytes([]byte{0}), Bytes([]byte{0, 1}), Bytes([]byte{1}), Bytes([]byte{0xff})}
	for i := range vals {
		for j := range vals {
			c := Compare(vals[i], vals[j])
			k := bytes.Compare(EncodeKey(nil, vals[i]), EncodeKey(nil, vals[j]))
			if (c < 0) != (k < 0) || (c > 0) != (k > 0) || (i < j) != (c < 0) {
				t.Errorf("%v vs %v: Compare %d, key order %d, listed %d before %d", vals[i], vals[j], c, k, i, j)
			}
		}
	}
}
