// Package wire defines the network protocol between youtopia-serve and
// entangle/client: length-prefixed frames over a byte stream.
//
// Framing is deliberately minimal — a 4-byte big-endian payload length
// followed by one payload in the binary layout of binary.go (the
// Request/Response types of messages.go). There is one frame format and
// no negotiation: a peer speaking anything else gets one "bad request"
// error response and a closed connection. Stdlib only.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize bounds a single frame's payload. A peer announcing a larger
// frame is malformed (or hostile); readers reject the length before
// allocating, so garbage length prefixes cannot trigger huge allocations.
const MaxFrameSize = 8 << 20 // 8 MiB

// ErrFrameTooLarge is returned for frames whose announced payload exceeds
// MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrEncode is wrapped around encode failures (a request with an unknown
// op). Both it and ErrFrameTooLarge are reported before any byte reaches
// the stream, so the caller may safely substitute a different frame (e.g.
// an error response).
var ErrEncode = errors.New("wire: encode")

// headerSize is the length-prefix size in bytes.
const headerSize = 4

// WriteFrame encodes v — a Request or a Response — and writes its frame:
// the one-message convenience for callers that drive a raw socket. The
// caller serializes concurrent writers.
func WriteFrame(w io.Writer, v any) error {
	var frame []byte
	var err error
	switch m := v.(type) {
	case Request:
		frame, err = Binary.AppendRequestFrame(nil, &m)
	case Response:
		frame, err = Binary.AppendResponseFrame(nil, &m)
	default:
		err = fmt.Errorf("%w: %T is not a frame payload", ErrEncode, v)
	}
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadFrame reads one frame's payload into a fresh buffer. io.EOF is
// returned unwrapped on a clean close (no bytes read); a connection dying
// mid-frame returns io.ErrUnexpectedEOF. Oversized frames return
// ErrFrameTooLarge without reading (or allocating) the payload.
func ReadFrame(r io.Reader) ([]byte, error) { return ReadFrameBuf(r, nil) }

// ReadFrameBuf is ReadFrame with a caller-owned scratch buffer: the
// returned payload aliases buf when it fits, so the caller may reuse buf
// for the next frame only after it is done with the payload. The Decode*
// methods copy everything they keep out of the payload, so a
// read loop decoding each frame before reading the next can recycle one
// buffer for the life of the connection.
func ReadFrameBuf(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: read payload: %w", err)
	}
	return payload, nil
}

// ReadInto reads one frame and decodes it into v, a *Request or a
// *Response.
func ReadInto(r io.Reader, v any) error {
	payload, err := ReadFrame(r)
	if err != nil {
		return err
	}
	switch m := v.(type) {
	case *Request:
		return Binary.DecodeRequest(payload, m)
	case *Response:
		return Binary.DecodeResponse(payload, m)
	}
	return fmt.Errorf("wire: decode frame: %T is not a frame payload", v)
}
