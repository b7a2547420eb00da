package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := Request{ID: 7, Op: OpSubmit, SQL: "BEGIN TRANSACTION; COMMIT;"}
	if err := WriteFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	resp := Response{ID: 7, OK: true, Handle: 3, Result: &Result{
		Columns: []string{"name", "fno"},
		Rows:    []types.Tuple{{types.Str("Mickey"), types.Int(122)}},
	}}
	if err := WriteFrame(&buf, resp); err != nil {
		t.Fatal(err)
	}

	var gotReq Request
	if err := ReadInto(&buf, &gotReq); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotReq, req) {
		t.Fatalf("request round trip: %+v != %+v", gotReq, req)
	}
	var gotResp Response
	if err := ReadInto(&buf, &gotResp); err != nil {
		t.Fatal(err)
	}
	if gotResp.ID != 7 || !gotResp.OK || gotResp.Handle != 3 {
		t.Fatalf("response round trip: %+v", gotResp)
	}
	if len(gotResp.Result.Rows) != 1 || !gotResp.Result.Rows[0][1].Equal(types.Int(122)) {
		t.Fatalf("result rows: %+v", gotResp.Result)
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	// Header promises 100 bytes; stream has 3.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.Write([]byte("abc"))
	if _, err := ReadFrame(&buf); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated payload: %v", err)
	}
	// Truncated header.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); err == nil || err == io.EOF {
		t.Fatalf("truncated header: %v", err)
	}
}

func TestReadFrameOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
}

func TestWriteFrameOversized(t *testing.T) {
	huge := Response{Error: string(make([]byte, MaxFrameSize+1))}
	if err := WriteFrame(io.Discard, huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
}
