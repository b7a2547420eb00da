package types

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary encoding of values and tuples, used by the write-ahead log. The
// format is self-describing: kind byte, then payload (varint for numeric
// kinds, length-prefixed bytes for strings).

// uvarintLen returns the number of bytes binary.AppendUvarint emits for x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// varintLen returns the number of bytes binary.AppendVarint emits for x
// (zig-zag encoding, matching encoding/binary).
func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// EncodedSize returns the exact number of bytes EncodeValue appends for v.
func (v Value) EncodedSize() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindString:
		return 1 + uvarintLen(uint64(len(v.s))) + len(v.s)
	default:
		return 1 + varintLen(v.i)
	}
}

// EncodedSize returns the exact number of bytes EncodeTuple appends for t.
func (t Tuple) EncodedSize() int {
	n := uvarintLen(uint64(len(t)))
	for _, v := range t {
		n += v.EncodedSize()
	}
	return n
}

// grow ensures buf has room for need more bytes with at most one
// allocation.
func grow(buf []byte, need int) []byte {
	if cap(buf)-len(buf) >= need {
		return buf
	}
	grown := make([]byte, len(buf), len(buf)+need)
	copy(grown, buf)
	return grown
}

// EncodeValue appends the binary encoding of v to buf and returns it.
func EncodeValue(buf []byte, v Value) []byte {
	buf = grow(buf, v.EncodedSize())
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindString:
		buf = binary.AppendUvarint(buf, uint64(len(v.s)))
		buf = append(buf, v.s...)
	default:
		buf = binary.AppendVarint(buf, v.i)
	}
	return buf
}

// DecodeValue decodes one value from buf, returning the value and the number
// of bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Null(), 0, io.ErrUnexpectedEOF
	}
	k := Kind(buf[0])
	pos := 1
	switch k {
	case KindNull:
		return Null(), pos, nil
	case KindString:
		n, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return Null(), 0, fmt.Errorf("types: bad string length varint")
		}
		pos += w
		if uint64(len(buf)-pos) < n {
			return Null(), 0, io.ErrUnexpectedEOF
		}
		s := string(buf[pos : pos+int(n)])
		return Str(s), pos + int(n), nil
	case KindInt, KindBool, KindDate:
		i, w := binary.Varint(buf[pos:])
		if w <= 0 {
			return Null(), 0, fmt.Errorf("types: bad int varint")
		}
		return Value{kind: k, i: i}, pos + w, nil
	default:
		return Null(), 0, fmt.Errorf("types: unknown kind byte %d", buf[0])
	}
}

// EncodeTuple appends the binary encoding of t (length prefix + values),
// growing buf at most once using the exact encoded size instead of
// amortized doubling through repeated appends.
func EncodeTuple(buf []byte, t Tuple) []byte {
	buf = grow(buf, t.EncodedSize())
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		buf = EncodeValue(buf, v)
	}
	return buf
}

// DecodeTuple decodes one tuple from buf, returning it and bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) { return DecodeTupleInto(nil, buf) }

// DecodeTupleInto is DecodeTuple decoding into dst's storage when dst is
// non-nil and large enough.
func DecodeTupleInto(dst Tuple, buf []byte) (Tuple, int, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, 0, fmt.Errorf("types: bad tuple length varint")
	}
	pos := w
	// Every encoded value is at least one byte, so a count beyond the
	// remaining bytes is a lie; reject it before sizing the allocation —
	// untrusted inputs (wire frames, a corrupt WAL tail) reach this path.
	if n > uint64(len(buf)-pos) {
		return nil, 0, fmt.Errorf("types: tuple count %d exceeds %d remaining bytes", n, len(buf)-pos)
	}
	t := dst[:0]
	if t == nil || uint64(cap(t)) < n {
		t = make(Tuple, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		v, used, err := DecodeValue(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		t = append(t, v)
		pos += used
	}
	return t, pos, nil
}
