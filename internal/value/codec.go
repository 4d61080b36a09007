package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file implements two binary codecs:
//
//   - EncodeKey/DecodeKey: an order-preserving encoding used for primary and
//     secondary index keys. bytes.Compare over two encoded keys matches
//     lexicographic Row comparison under Compare.
//   - EncodeRow/DecodeRow: a compact, non-ordered encoding used for the WAL
//     and snapshot files.
//
// Key encoding layout per value: a one-byte kind tag (chosen so tags order
// the same way Compare orders kinds, with numerics unified) followed by a
// payload whose raw byte order matches value order.

// Key tags. Numeric values (int and float) share a tag so that 1 and 1.0
// compare equal and order correctly against each other.
const (
	tagNull  byte = 0x01
	tagNum   byte = 0x02
	tagText  byte = 0x03
	tagBool  byte = 0x04
	tagBytes byte = 0x05
)

// EncodeKey appends the order-preserving encoding of v to dst.
func EncodeKey(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, tagNull)
	case KindInt:
		dst = append(dst, tagNum)
		return encodeOrderedFloat(dst, float64(v.AsInt()), v.AsInt(), true)
	case KindFloat:
		dst = append(dst, tagNum)
		return encodeOrderedFloat(dst, v.AsFloat(), 0, false)
	case KindText:
		dst = append(dst, tagText)
		return encodeOrderedBytes(dst, v.s)
	case KindBool:
		dst = append(dst, tagBool)
		if v.n != 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	case KindBytes:
		dst = append(dst, tagBytes)
		return encodeOrderedBytes(dst, v.s)
	default:
		return append(dst, tagNull)
	}
}

// encodeOrderedFloat writes a 9-byte numeric payload: an 8-byte
// order-preserving float image plus a discriminator byte (1 = originated as
// int) so DecodeKey can round-trip the original kind. Large int64s that lose
// precision as floats are extremely rare in TROD workloads; the float image
// still orders correctly for all values representable exactly, and the
// discriminator restores exact int payloads via the trailing varint when set.
func encodeOrderedFloat(dst []byte, f float64, iv int64, isInt bool) []byte {
	if f != f {
		f = math.NaN() // every NaN is one key, above +Inf, as in Compare
	}
	bits := math.Float64bits(f)
	if f >= 0 || !math.Signbit(f) {
		bits |= 1 << 63
	} else {
		bits = ^bits
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], bits)
	dst = append(dst, buf[:]...)
	if isInt {
		dst = append(dst, 1)
		var ib [8]byte
		binary.BigEndian.PutUint64(ib[:], uint64(iv))
		dst = append(dst, ib[:]...)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

// encodeOrderedBytes escapes 0x00 as 0x00 0xFF and terminates with 0x00 0x00
// so that prefixes order before extensions.
func encodeOrderedBytes(dst []byte, src string) []byte {
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// EncodeKeyRow encodes each value of the row in order; the concatenation is
// order-preserving for tuple comparison.
func EncodeKeyRow(dst []byte, r Row) []byte {
	for _, v := range r {
		dst = EncodeKey(dst, v)
	}
	return dst
}

// DecodeKey decodes one value from src, returning the value and the number
// of bytes consumed.
func DecodeKey(src []byte) (Value, int, error) {
	if len(src) == 0 {
		return Null, 0, fmt.Errorf("value: empty key")
	}
	tag := src[0]
	switch tag {
	case tagNull:
		return Null, 1, nil
	case tagNum:
		if len(src) < 10 {
			return Null, 0, fmt.Errorf("value: truncated numeric key")
		}
		bits := binary.BigEndian.Uint64(src[1:9])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		isInt := src[9] == 1
		if isInt {
			if len(src) < 18 {
				return Null, 0, fmt.Errorf("value: truncated int key")
			}
			iv := int64(binary.BigEndian.Uint64(src[10:18]))
			return Int(iv), 18, nil
		}
		return Float(math.Float64frombits(bits)), 10, nil
	case tagText, tagBytes:
		payload, n, err := decodeOrderedBytes(src[1:])
		if err != nil {
			return Null, 0, err
		}
		if tag == tagText {
			return Text(string(payload)), 1 + n, nil
		}
		return Bytes(payload), 1 + n, nil
	case tagBool:
		if len(src) < 2 {
			return Null, 0, fmt.Errorf("value: truncated bool key")
		}
		return Bool(src[1] != 0), 2, nil
	default:
		return Null, 0, fmt.Errorf("value: bad key tag 0x%02x", tag)
	}
}

func decodeOrderedBytes(src []byte) ([]byte, int, error) {
	var out []byte
	i := 0
	for {
		if i+1 >= len(src) {
			return nil, 0, fmt.Errorf("value: unterminated byte key")
		}
		if src[i] == 0x00 {
			switch src[i+1] {
			case 0x00:
				return out, i + 2, nil
			case 0xFF:
				out = append(out, 0x00)
				i += 2
			default:
				return nil, 0, fmt.Errorf("value: bad byte-key escape 0x%02x", src[i+1])
			}
			continue
		}
		out = append(out, src[i])
		i++
	}
}

// DecodeKeyRow decodes n values from src.
func DecodeKeyRow(src []byte, n int) (Row, error) {
	row := make(Row, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		v, used, err := DecodeKey(src[off:])
		if err != nil {
			return nil, fmt.Errorf("value: key column %d: %w", i, err)
		}
		row = append(row, v)
		off += used
	}
	return row, nil
}

// EncodeRow appends a compact (non-ordered) encoding of the row: a uvarint
// column count, then per column a kind byte and payload.
func EncodeRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindInt, KindBool:
			dst = binary.AppendVarint(dst, v.AsInt())
		case KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, v.n)
		case KindText, KindBytes:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		}
	}
	return dst
}

// shortestUvarint reports whether n bytes is the shortest uvarint encoding
// of v, the one EncodeRow writes. DecodeRow accepts only that form, so a
// row it accepts re-encodes to the same bytes. (A signed varint is checked
// as the uvarint of its zigzag image.)
func shortestUvarint(v uint64, n int) bool {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v) == n
}

// maxRowColumns caps a decoded row's arity. Real rows are schema rows
// (tens of columns) or statement argument lists; the cap only exists so a
// crafted header cannot turn one cheap input byte per claimed column into
// a 32-byte Value allocation each (a ~32x memory amplification for
// network-supplied frames).
const maxRowColumns = 1 << 16

// DecodeRow decodes a row previously written by EncodeRow, returning the row
// and bytes consumed.
func DecodeRow(src []byte) (Row, int, error) {
	n, used := binary.Uvarint(src)
	if used <= 0 || !shortestUvarint(n, used) {
		return nil, 0, fmt.Errorf("value: bad row header")
	}
	off := used
	// Every column costs at least one byte (the kind tag), so a count
	// beyond the remaining input is corrupt. Decoded input is not always
	// trusted (network frames as well as WAL records feed this), so the
	// count must be validated before it sizes an allocation.
	if n > uint64(len(src)-off) {
		return nil, 0, fmt.Errorf("value: row column count %d exceeds input", n)
	}
	if n > maxRowColumns {
		return nil, 0, fmt.Errorf("value: row column count %d exceeds limit %d", n, maxRowColumns)
	}
	row := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		if off >= len(src) {
			return nil, 0, fmt.Errorf("value: truncated row")
		}
		kind := Kind(src[off])
		off++
		switch kind {
		case KindNull:
			row = append(row, Null)
		case KindInt, KindBool:
			iv, u := binary.Varint(src[off:])
			if u <= 0 || !shortestUvarint(uint64(iv)<<1^uint64(iv>>63), u) {
				return nil, 0, fmt.Errorf("value: bad varint in row")
			}
			off += u
			if kind == KindInt {
				row = append(row, Int(iv))
			} else if iv == 0 || iv == 1 {
				row = append(row, Bool(iv == 1))
			} else {
				return nil, 0, fmt.Errorf("value: bad bool %d in row", iv)
			}
		case KindFloat:
			if off+8 > len(src) {
				return nil, 0, fmt.Errorf("value: truncated float")
			}
			row = append(row, Float(math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))))
			off += 8
		case KindText, KindBytes:
			ln, u := binary.Uvarint(src[off:])
			if u <= 0 || !shortestUvarint(ln, u) {
				return nil, 0, fmt.Errorf("value: bad length in row")
			}
			off += u
			// uint64 comparison: a crafted length must not wrap the bound
			// check into a slice panic.
			if ln > uint64(len(src)-off) {
				return nil, 0, fmt.Errorf("value: truncated payload")
			}
			payload := src[off : off+int(ln)]
			off += int(ln)
			if kind == KindText {
				row = append(row, Text(string(payload)))
			} else {
				row = append(row, Bytes(payload))
			}
		default:
			return nil, 0, fmt.Errorf("value: bad kind byte 0x%02x", byte(kind))
		}
	}
	return row, off, nil
}
