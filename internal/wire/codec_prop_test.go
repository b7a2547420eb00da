package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
)

// Round-trip property: for every wire message, decode ∘ encode is the
// identity — including the opaque Body section, the shard ops, and the
// err_code sentinel mapping that errors.Is depends on.

// genValue draws one types.Value covering every kind, with zero/empty and
// extreme edge cases.
func genValue(rng *rand.Rand) types.Value {
	switch rng.Intn(12) {
	case 0:
		return types.Null()
	case 1:
		return types.Int(0)
	case 2:
		return types.Int(math.MaxInt64)
	case 3:
		return types.Int(math.MinInt64)
	case 4:
		return types.Int(rng.Int63() - rng.Int63())
	case 5:
		return types.Str("")
	case 6:
		return types.Str("héllo – 世界 \x00\n\"")
	case 7:
		return types.Str(randString(rng, rng.Intn(40)))
	case 8:
		return types.Bool(true)
	case 9:
		return types.Bool(false)
	case 10:
		return types.Date(int64(rng.Intn(80000) - 20000)) // ~1915..2189
	default:
		return types.Date(0)
	}
}

// alphabet is drawn per rune: control bytes, quotes, and multibyte runes
// all appear in generated strings.
var alphabet = []rune("abcdefghijklmnopqrstuvwxyzABC =',;\"\\{}[]\x00\n\x7fé世–")

func randString(rng *rand.Rand, n int) string {
	b := make([]rune, 0, n)
	for i := 0; i < n; i++ {
		b = append(b, alphabet[rng.Intn(len(alphabet))])
	}
	return string(b)
}

func genTuple(rng *rand.Rand) types.Tuple {
	t := make(types.Tuple, 0, rng.Intn(5))
	for i := 0; i < cap(t); i++ {
		t = append(t, genValue(rng))
	}
	return t
}

// genBody draws an opaque Body section: absent, JSON-looking, or raw
// bytes (the codec must not care which).
func genBody(rng *rand.Rand) []byte {
	switch rng.Intn(4) {
	case 0:
		return []byte(fmt.Sprintf(`{"commits":%d,"runs":%d}`, rng.Intn(1000), rng.Intn(100)))
	case 1:
		b := make([]byte, 1+rng.Intn(300))
		rng.Read(b)
		return b
	default:
		return nil
	}
}

var allErrCodes = []string{
	"", ErrCodeTimeout, ErrCodeEngineClosed, ErrCodeRolledBack, ErrCodeDraining,
	ErrCodeOverloaded,
}

func genRequest(rng *rand.Rand) Request {
	return Request{
		ID:      rng.Uint64() >> uint(rng.Intn(64)),
		Op:      OpPing + Op(rng.Intn(int(opEnd-OpPing))), // every op, the shard ops included
		SQL:     randString(rng, rng.Intn(60)),
		Handle:  rng.Uint64() >> uint(rng.Intn(64)),
		Session: rng.Uint64() >> uint(rng.Intn(64)),
		Idem:    rng.Uint64() >> uint(rng.Intn(64)),
		Client:  []string{"", randString(rng, 1+rng.Intn(16))}[rng.Intn(2)],
		Body:    genBody(rng),
		Trace:   []uint64{0, rng.Uint64() >> uint(rng.Intn(64))}[rng.Intn(2)],
	}
}

func genResult(rng *rand.Rand) *Result {
	res := &Result{RowsAffected: rng.Intn(100) - 10}
	for i := rng.Intn(4); i > 0; i-- {
		res.Columns = append(res.Columns, randString(rng, rng.Intn(12)))
	}
	for i := rng.Intn(5); i > 0; i-- {
		res.Rows = append(res.Rows, genTuple(rng))
	}
	return res
}

func genResponse(rng *rand.Rand) Response {
	resp := Response{
		ID:      rng.Uint64() >> uint(rng.Intn(64)),
		OK:      rng.Intn(2) == 0,
		Error:   randString(rng, rng.Intn(30)),
		ErrCode: allErrCodes[rng.Intn(len(allErrCodes))],
		Version: rng.Intn(5),
		Handle:  rng.Uint64() >> uint(rng.Intn(64)),
		Session: rng.Uint64() >> uint(rng.Intn(64)),
		Done:    rng.Intn(2) == 0,
		Trace:   []uint64{0, rng.Uint64() >> uint(rng.Intn(64))}[rng.Intn(2)],
	}
	if rng.Intn(3) == 0 {
		resp.Result = genResult(rng)
	}
	if rng.Intn(3) == 0 {
		resp.Outcome = &Outcome{
			Status:   []string{"COMMITTED", "ROLLED-BACK", "TIMED-OUT", "FAILED", ""}[rng.Intn(5)],
			Error:    randString(rng, rng.Intn(20)),
			ErrCode:  allErrCodes[rng.Intn(len(allErrCodes))],
			Attempts: rng.Intn(50),
		}
	}
	resp.Body = genBody(rng)
	for i := rng.Intn(3); i > 0; i-- {
		resp.Tables = append(resp.Tables, TableInfo{
			Name:   randString(rng, 1+rng.Intn(10)),
			Schema: randString(rng, rng.Intn(30)),
			Rows:   rng.Intn(10000),
		})
	}
	return resp
}

// frameRoundTrip encodes msg as one frame with codec c and reads the
// payload back through the shared frame layer.
func framePayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("re-read frame: %v", err)
	}
	return payload
}

func TestCodecRoundTripRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 3000; i++ {
		req := genRequest(rng)
		frame, err := Binary.AppendRequestFrame(nil, &req)
		if err != nil {
			t.Fatalf("#%d encode: %v", i, err)
		}
		var got Request
		if err := Binary.DecodeRequest(framePayload(t, frame), &got); err != nil {
			t.Fatalf("#%d decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("#%d request not lossless:\n got:  %+v\n want: %+v", i, got, req)
		}
	}
}

func TestCodecRoundTripResponses(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 3000; i++ {
		resp := genResponse(rng)
		frame, err := Binary.AppendResponseFrame(nil, &resp)
		if err != nil {
			t.Fatalf("#%d encode: %v", i, err)
		}
		var got Response
		if err := Binary.DecodeResponse(framePayload(t, frame), &got); err != nil {
			t.Fatalf("#%d decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("#%d response not lossless:\n got:  %+v\n want: %+v", i, got, resp)
		}
	}
}

// TestCodecRejectsUnknownOps: the opcode byte is the Op value, so both
// directions must refuse values outside the assigned range.
func TestCodecRejectsUnknownOps(t *testing.T) {
	for _, op := range []Op{0, opEnd, 255} {
		if _, err := Binary.AppendRequestFrame(nil, &Request{ID: 1, Op: op}); !errors.Is(err, ErrEncode) {
			t.Errorf("encode op %d: err = %v, want ErrEncode", op, err)
		}
		frame, err := Binary.AppendRequestFrame(nil, &Request{ID: 1, Op: OpPing})
		if err != nil {
			t.Fatal(err)
		}
		frame[headerSize] = byte(op)
		var got Request
		if err := Binary.DecodeRequest(frame[headerSize:], &got); err == nil {
			t.Errorf("decode opcode %d succeeded: %+v", op, got)
		}
	}
}

// TestCodecSentinelErrorsSurviveBinary pins the err_code chain end to end:
// an engine sentinel encoded on the server side must satisfy errors.Is
// after a round trip through the frame.
func TestCodecSentinelErrorsSurviveBinary(t *testing.T) {
	sentinels := []error{core.ErrTimeout, core.ErrEngineClosed, core.ErrRolledBack, core.ErrDraining}
	for _, sentinel := range sentinels {
		o := core.Outcome{Status: core.StatusTimedOut, Err: fmt.Errorf("wrapped: %w", sentinel), Attempts: 3}
		resp := Response{ID: 7, OK: true, Done: true, Outcome: FromOutcome(o)}
		frame, err := Binary.AppendResponseFrame(nil, &resp)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var got Response
		if err := Binary.DecodeResponse(framePayload(t, frame), &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Outcome == nil {
			t.Fatal("outcome lost")
		}
		back := got.Outcome.ToOutcome()
		if !errors.Is(back.Err, sentinel) {
			t.Errorf("errors.Is lost for %v: got %v", sentinel, back.Err)
		}
		if back.Attempts != 3 || back.Status != core.StatusTimedOut {
			t.Errorf("outcome fields drifted: %+v", back)
		}
	}
}

// TestBinaryEncodeExactSize pins the ≤1-alloc discipline: the encoder's
// size computation must match the bytes actually emitted, and encoding
// into a pre-sized buffer must not allocate.
func TestBinaryEncodeExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 500; i++ {
		resp := genResponse(rng)
		frame, err := Binary.AppendResponseFrame(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		if want := headerSize + binaryResponseSize(&resp); len(frame) != want {
			t.Fatalf("#%d size mismatch: frame %d bytes, computed %d", i, len(frame), want)
		}
		req := genRequest(rng)
		frame, err = Binary.AppendRequestFrame(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		if want := headerSize + binaryRequestSize(&req); len(frame) != want {
			t.Fatalf("#%d request size mismatch: frame %d bytes, computed %d", i, len(frame), want)
		}
	}

	resp := Response{ID: 42, OK: true, Result: &Result{
		Columns: []string{"who"},
		Rows:    []types.Tuple{{types.Str("LA")}, {types.Int(7)}},
	}}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := Binary.AppendResponseFrame(buf, &resp)
		if err != nil {
			t.Fatal(err)
		}
		_ = out
	})
	if allocs > 0 {
		t.Errorf("encode into pre-sized buffer allocates %v times", allocs)
	}
}

// TestBinaryTraceOptionality pins the contract of the trace field: a
// Trace=0 request carries no trailing uvarint at all (an untraced request
// pays zero bytes), a traced frame round-trips, and attaching a trace to
// the encode hot path costs zero allocations either way.
func TestBinaryTraceOptionality(t *testing.T) {
	base := Request{ID: 9, Op: OpSubmit, SQL: "BEGIN; COMMIT"}
	traced := base
	traced.Trace = 0xdeadbeefcafe

	plain, err := Binary.AppendRequestFrame(nil, &base)
	if err != nil {
		t.Fatal(err)
	}
	withTrace, err := Binary.AppendRequestFrame(nil, &traced)
	if err != nil {
		t.Fatal(err)
	}
	plainPayload := framePayload(t, plain)
	tracedPayload := framePayload(t, withTrace)
	if want := len(plainPayload) + uvlen(traced.Trace); len(tracedPayload) != want {
		t.Fatalf("traced payload %d bytes, want plain %d + uvarint %d", len(tracedPayload), len(plainPayload), uvlen(traced.Trace))
	}
	if !bytes.Equal(tracedPayload[:len(plainPayload)], plainPayload) {
		t.Fatal("traced payload does not extend the plain encoding byte-for-byte")
	}
	var back Request
	if err := Binary.DecodeRequest(framePayload(t, withTrace), &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace != traced.Trace {
		t.Fatalf("trace id lost: got %#x want %#x", back.Trace, traced.Trace)
	}
	var backPlain Request
	if err := Binary.DecodeRequest(framePayload(t, plain), &backPlain); err != nil {
		t.Fatal(err)
	}
	if backPlain.Trace != 0 {
		t.Fatalf("traceless frame decoded trace %#x", backPlain.Trace)
	}

	for name, req := range map[string]*Request{"absent": &base, "present": &traced} {
		buf := make([]byte, 0, 4096)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Binary.AppendRequestFrame(buf, req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("request encode (trace %s) allocates %v times", name, allocs)
		}
	}
}

// TestBinaryDecodeRejectsLyingCounts: a frame whose element count
// announces more elements than the payload has bytes must be rejected
// before any allocation sized by that count.
func TestBinaryDecodeRejectsLyingCounts(t *testing.T) {
	resp := Response{ID: 1, OK: true, Result: &Result{Rows: []types.Tuple{{types.Int(1)}}}}
	frame, err := Binary.AppendResponseFrame(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	payload := framePayload(t, frame)
	// Corrupt every single byte in turn; decode must fail cleanly or
	// succeed, never panic or over-allocate.
	for i := range payload {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0xff
		var got Response
		_ = Binary.DecodeResponse(mut, &got)
	}
	// A directly lying row count: uvarint 2^62 rows in a tiny payload.
	var r Response
	lying := []byte{1 /*id*/, respFlagResult | respFlagOK /*flags*/, 0 /*version*/, 0, 0, 0, 0 /*hdl,ses,strs*/, 0 /*ncols*/}
	lying = append(lying, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f) // nrows = huge
	if err := Binary.DecodeResponse(lying, &r); err == nil {
		t.Fatal("lying row count decoded without error")
	}
	// Truncations of a valid payload must all error (or stop cleanly),
	// never panic.
	for i := 0; i < len(payload); i++ {
		var got Response
		_ = Binary.DecodeResponse(payload[:i], &got)
	}
}
