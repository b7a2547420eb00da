package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// The frame payload encoding (wire protocol v2; v3 changed only the shard
// ops' Body, see envelope.go). Layout discipline follows
// types.EncodeTuple: every message's encoded size is computed exactly
// before encoding, so one frame is one grow (≤1 allocation) and the
// length prefix is written without buffering the payload separately.
//
// Integers are varints (uvarint for IDs/counts, zig-zag varint for
// signed fields), strings and byte blobs are length-prefixed, tuples use
// the types package's self-describing value encoding — the same bytes the
// WAL writes. Optional response sections are gated by a flags byte.
//
// Request payload:
//
//	u8      opcode (the Op value)
//	uvarint id
//	uvarint handle
//	uvarint session
//	uvarint idem
//	string  sql
//	string  client
//	bytes   body
//	[uvarint trace]  — present only when Trace != 0; decoders read it iff
//	                   payload bytes remain
//
// Response payload:
//
//	uvarint id
//	u8      flags (bit0 OK, bit1 Done, bit2 Result, bit3 Outcome,
//	               bit4 Body, bit5 Tables, bit6 Trace)
//	varint  version
//	uvarint handle
//	uvarint session
//	string  error
//	string  err_code
//	[Result]  uvarint ncols, ncols×string; uvarint nrows, nrows×tuple;
//	          varint rows_affected
//	[Outcome] string status; string error; string err_code; varint attempts
//	[Body]    bytes (opaque to the codec)
//	[Tables]  uvarint n, n×(string name; string schema; varint rows)
//	[Trace]   uvarint trace id
//
// Decoding is strict: unknown opcodes, truncated fields, non-minimal
// varints, element counts exceeding the remaining payload (rejected before
// allocating), and trailing garbage are all errors. The fuzz wall in binary_fuzz_test.go
// holds the decoder to "never panic, never over-allocate".

// Codec is the frame format: it turns Request/Response payloads into
// frame bytes and back. There is one, and every connection speaks it from
// its first byte.
//
// The Append*Frame methods append a complete frame (header + payload) to
// buf so a writer can coalesce many frames into one buffer and flush them
// with a single Write. On error buf is returned unchanged — nothing
// half-encoded reaches the stream, so the caller may substitute a
// different frame (e.g. an error response).
type Codec struct{}

// Binary is the frame format's value.
var Binary Codec

// CodecBinary is the frame format's name; CodecByName resolves it. Nothing
// is negotiated any more — the pair remains for callers (the benchmark's
// wire probe) that ask for the format by name.
const CodecBinary = "binary"

func CodecByName(name string) (Codec, error) {
	if name != CodecBinary {
		return Codec{}, fmt.Errorf("wire: unknown codec %q", name)
	}
	return Binary, nil
}

// Response flag bits.
const (
	respFlagOK      = 1 << 0
	respFlagDone    = 1 << 1
	respFlagResult  = 1 << 2
	respFlagOutcome = 1 << 3
	respFlagBody    = 1 << 4
	respFlagTables  = 1 << 5
	respFlagTrace   = 1 << 6
)

// --- sizes ---------------------------------------------------------------

func uvlen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func vlen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvlen(ux)
}

func strSize(s string) int { return uvlen(uint64(len(s))) + len(s) }

func binaryRequestSize(r *Request) int {
	n := 1 + uvlen(r.ID) + uvlen(r.Handle) + uvlen(r.Session) +
		uvlen(r.Idem) + strSize(r.SQL) + strSize(r.Client) + uvlen(uint64(len(r.Body))) + len(r.Body)
	if r.Trace != 0 {
		n += uvlen(r.Trace)
	}
	return n
}

func binaryResultSize(res *Result) int {
	n := uvlen(uint64(len(res.Columns)))
	for _, c := range res.Columns {
		n += strSize(c)
	}
	n += uvlen(uint64(len(res.Rows)))
	for _, t := range res.Rows {
		n += t.EncodedSize()
	}
	return n + vlen(int64(res.RowsAffected))
}

func binaryResponseSize(r *Response) int {
	n := uvlen(r.ID) + 1 + vlen(int64(r.Version)) + uvlen(r.Handle) +
		uvlen(r.Session) + strSize(r.Error) + strSize(r.ErrCode)
	if r.Result != nil {
		n += binaryResultSize(r.Result)
	}
	if r.Outcome != nil {
		o := r.Outcome
		n += strSize(o.Status) + strSize(o.Error) + strSize(o.ErrCode) + vlen(int64(o.Attempts))
	}
	if len(r.Body) > 0 {
		n += uvlen(uint64(len(r.Body))) + len(r.Body)
	}
	if len(r.Tables) > 0 {
		n += uvlen(uint64(len(r.Tables)))
		for _, t := range r.Tables {
			n += strSize(t.Name) + strSize(t.Schema) + vlen(int64(t.Rows))
		}
	}
	if r.Trace != 0 {
		n += uvlen(r.Trace)
	}
	return n
}

// --- encode --------------------------------------------------------------

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// grow ensures buf has room for need more bytes with at most one
// allocation (mirrors types.grow).
func grow(buf []byte, need int) []byte {
	if cap(buf)-len(buf) >= need {
		return buf
	}
	grown := make([]byte, len(buf), len(buf)+need)
	copy(grown, buf)
	return grown
}

func (Codec) AppendRequestFrame(buf []byte, req *Request) ([]byte, error) {
	if req.Op == 0 || req.Op >= opEnd {
		return buf, fmt.Errorf("%w: unknown op %d", ErrEncode, req.Op)
	}
	size := binaryRequestSize(req)
	if size > MaxFrameSize {
		return buf, ErrFrameTooLarge
	}
	out := grow(buf, headerSize+size)
	out = binary.BigEndian.AppendUint32(out, uint32(size))
	out = append(out, byte(req.Op))
	out = binary.AppendUvarint(out, req.ID)
	out = binary.AppendUvarint(out, req.Handle)
	out = binary.AppendUvarint(out, req.Session)
	out = binary.AppendUvarint(out, req.Idem)
	out = appendStr(out, req.SQL)
	out = appendStr(out, req.Client)
	out = appendBytes(out, req.Body)
	if req.Trace != 0 {
		out = binary.AppendUvarint(out, req.Trace)
	}
	return out, nil
}

func (Codec) AppendResponseFrame(buf []byte, resp *Response) ([]byte, error) {
	size := binaryResponseSize(resp)
	if size > MaxFrameSize {
		return buf, ErrFrameTooLarge
	}
	var flags byte
	if resp.OK {
		flags |= respFlagOK
	}
	if resp.Done {
		flags |= respFlagDone
	}
	if resp.Result != nil {
		flags |= respFlagResult
	}
	if resp.Outcome != nil {
		flags |= respFlagOutcome
	}
	if len(resp.Body) > 0 {
		flags |= respFlagBody
	}
	if len(resp.Tables) > 0 {
		flags |= respFlagTables
	}
	if resp.Trace != 0 {
		flags |= respFlagTrace
	}
	out := grow(buf, headerSize+size)
	out = binary.BigEndian.AppendUint32(out, uint32(size))
	out = binary.AppendUvarint(out, resp.ID)
	out = append(out, flags)
	out = binary.AppendVarint(out, int64(resp.Version))
	out = binary.AppendUvarint(out, resp.Handle)
	out = binary.AppendUvarint(out, resp.Session)
	out = appendStr(out, resp.Error)
	out = appendStr(out, resp.ErrCode)
	if resp.Result != nil {
		res := resp.Result
		out = binary.AppendUvarint(out, uint64(len(res.Columns)))
		for _, c := range res.Columns {
			out = appendStr(out, c)
		}
		out = binary.AppendUvarint(out, uint64(len(res.Rows)))
		for _, t := range res.Rows {
			out = types.EncodeTuple(out, t)
		}
		out = binary.AppendVarint(out, int64(res.RowsAffected))
	}
	if resp.Outcome != nil {
		o := resp.Outcome
		out = appendStr(out, o.Status)
		out = appendStr(out, o.Error)
		out = appendStr(out, o.ErrCode)
		out = binary.AppendVarint(out, int64(o.Attempts))
	}
	if len(resp.Body) > 0 {
		out = appendBytes(out, resp.Body)
	}
	if len(resp.Tables) > 0 {
		out = binary.AppendUvarint(out, uint64(len(resp.Tables)))
		for _, t := range resp.Tables {
			out = appendStr(out, t.Name)
			out = appendStr(out, t.Schema)
			out = binary.AppendVarint(out, int64(t.Rows))
		}
	}
	if resp.Trace != 0 {
		out = binary.AppendUvarint(out, resp.Trace)
	}
	return out, nil
}

// --- decode --------------------------------------------------------------

// breader is a bounds-checked payload reader. The first failure sticks;
// every accessor after it returns a zero value, so decode functions read
// straight through and check err once.
type breader struct {
	buf []byte
	pos int
	err error
}

func (r *breader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: binary decode: "+format, args...)
	}
}

func (r *breader) remaining() int { return len(r.buf) - r.pos }

func (r *breader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *breader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 || n > 1 && r.buf[r.pos+n-1] == 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.pos += n
	return v
}

func (r *breader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 || n > 1 && r.buf[r.pos+n-1] == 0 {
		r.fail("bad varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *breader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.remaining()) {
		r.fail("string length %d exceeds remaining %d bytes", n, r.remaining())
		return ""
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// raw reads a length-prefixed byte blob (copied out of the frame buffer).
func (r *breader) raw() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("blob length %d exceeds remaining %d bytes", n, r.remaining())
		return nil
	}
	b := append([]byte(nil), r.buf[r.pos:r.pos+int(n)]...)
	r.pos += int(n)
	return b
}

// count reads an element count and rejects counts that cannot fit in the
// remaining payload (every element is at least one byte), so a lying
// count cannot trigger a huge allocation.
func (r *breader) count(what string) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()) {
		r.fail("%s count %d exceeds remaining %d bytes", what, n, r.remaining())
		return 0
	}
	return int(n)
}

func (r *breader) tuple() types.Tuple {
	if r.err != nil {
		return nil
	}
	t, n, err := types.DecodeTuple(r.buf[r.pos:])
	if err != nil {
		r.fail("tuple: %v", err)
		return nil
	}
	r.pos += n
	return t
}

// done returns the sticky error, or a trailing-garbage error if the
// payload was not fully consumed.
func (r *breader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("wire: binary decode: %d trailing bytes", len(r.buf)-r.pos)
	}
	return nil
}

func (Codec) DecodeRequest(payload []byte, req *Request) error {
	r := breader{buf: payload}
	req.Op = Op(r.u8())
	if r.err == nil && (req.Op == 0 || req.Op >= opEnd) {
		r.fail("unknown opcode %d", req.Op)
	}
	req.ID = r.uvarint()
	req.Handle = r.uvarint()
	req.Session = r.uvarint()
	req.Idem = r.uvarint()
	req.SQL = r.str()
	req.Client = r.str()
	req.Body = r.raw()
	// Optional trailing trace id: "read iff bytes remain" keeps the strict
	// no-trailing-garbage rule intact — anything after the trace uvarint
	// still fails done().
	req.Trace = 0
	if r.err == nil && r.remaining() > 0 {
		req.Trace = r.uvarint()
	}
	return r.done()
}

func (Codec) DecodeResponse(payload []byte, resp *Response) error {
	r := breader{buf: payload}
	resp.ID = r.uvarint()
	flags := r.u8()
	resp.OK = flags&respFlagOK != 0
	resp.Done = flags&respFlagDone != 0
	resp.Version = int(r.varint())
	resp.Handle = r.uvarint()
	resp.Session = r.uvarint()
	resp.Error = r.str()
	resp.ErrCode = r.str()
	resp.Result = nil
	resp.Outcome = nil
	resp.Body = nil
	resp.Tables = nil
	if flags&respFlagResult != 0 {
		res := &Result{}
		if n := r.count("column"); n > 0 {
			res.Columns = make([]string, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				res.Columns = append(res.Columns, r.str())
			}
		}
		if n := r.count("row"); n > 0 {
			res.Rows = make([]types.Tuple, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				res.Rows = append(res.Rows, r.tuple())
			}
		}
		res.RowsAffected = int(r.varint())
		resp.Result = res
	}
	if flags&respFlagOutcome != 0 {
		o := &Outcome{}
		o.Status = r.str()
		o.Error = r.str()
		o.ErrCode = r.str()
		o.Attempts = int(r.varint())
		resp.Outcome = o
	}
	if flags&respFlagBody != 0 {
		resp.Body = r.raw()
	}
	if flags&respFlagTables != 0 {
		if n := r.count("table"); n > 0 {
			resp.Tables = make([]TableInfo, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				var t TableInfo
				t.Name = r.str()
				t.Schema = r.str()
				t.Rows = int(r.varint())
				resp.Tables = append(resp.Tables, t)
			}
		}
	}
	resp.Trace = 0
	if flags&respFlagTrace != 0 {
		resp.Trace = r.uvarint()
	}
	return r.done()
}
