package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzBinaryFrame holds the frame codec to its safety contract: arbitrary
// bytes fed through the frame reader and both decoders must never panic,
// and lying length prefixes or element counts must be rejected before any
// allocation they would size. This is the untrusted-input boundary — a
// server's read loop runs exactly this code from a connection's first
// byte.
func FuzzBinaryFrame(f *testing.F) {
	// Corpus: valid frames from the round-trip generator (requests and
	// responses with every value kind, a third of them Body-bearing), their
	// truncations, Body-bearing frames in both directions, a frame with a
	// lying header or a lying Body length, concatenated frames, and garbage.
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 8; i++ {
		req := genRequest(rng)
		frame, err := Binary.AppendRequestFrame(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		resp := genResponse(rng)
		frame2, err := Binary.AppendResponseFrame(nil, &resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame2)
		f.Add(append(append([]byte(nil), frame...), frame2...))
		if len(frame2) > headerSize+2 {
			f.Add(frame2[:headerSize+2])
		}
	}
	body := []byte(`{"vote":{"group":7,"offer":3,"node":"127.0.0.1:7272","yes":true}}`)
	for _, req := range []Request{
		{ID: 1, Op: OpShardMsg, Body: body},
		{ID: 2, Op: OpShardMsg, Body: body, Trace: 99},
		{ID: 3, Op: OpShardMsg, Body: []byte{0xff, 0x00, 0x80}},
	} {
		frame, err := Binary.AppendRequestFrame(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-len(req.Body)/2]) // Body cut short
	}
	for _, resp := range []Response{
		{ID: 1, OK: true, Body: body},
		{ID: 2, OK: true, Body: body, Tables: []TableInfo{{Name: "T", Schema: "(a INT)", Rows: 1}}, Trace: 5},
	} {
		frame, err := Binary.AppendResponseFrame(nil, &resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// A Body length far past the payload end: opcode, id, handle, session,
	// idem, sql "", client "", then the lying length.
	f.Add([]byte{0, 0, 0, 10, byte(OpShardMsg), 1, 0, 0, 0, 0, 0, 0xff, 0xff, 0x3f})
	var lying [12]byte
	binary.BigEndian.PutUint32(lying[:], 1<<31) // oversized announced payload
	f.Add(lying[:])
	var hugeCount bytes.Buffer
	hugeCount.Write([]byte{0, 0, 0, 10, 1, respFlagResult, 0, 0, 0, 0, 0})
	hugeCount.Write([]byte{0xff, 0xff, 0x3f}) // column count far past payload end
	f.Add(hugeCount.Bytes())
	f.Add([]byte{})
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := ReadFrame(r)
			if err != nil {
				break
			}
			// Each well-framed payload goes through both decoders: a server
			// decodes requests, a client decodes responses, and a hostile
			// peer controls the bytes either way.
			var req Request
			if err := Binary.DecodeRequest(payload, &req); err == nil {
				// A successfully decoded request must re-encode: decode is
				// the inverse of encode on its own image.
				if _, err := Binary.AppendRequestFrame(nil, &req); err != nil {
					t.Fatalf("decoded request does not re-encode: %+v: %v", req, err)
				}
			}
			var resp Response
			if err := Binary.DecodeResponse(payload, &resp); err == nil {
				if _, err := Binary.AppendResponseFrame(nil, &resp); err != nil {
					t.Fatalf("decoded response does not re-encode: %+v: %v", resp, err)
				}
			}
		}
	})
}
