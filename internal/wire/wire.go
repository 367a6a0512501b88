// Package wire is the one framing and payload codec under both network
// protocols of the stack: the register service (internal/netmem, DESIGN
// §8) and the job service (internal/jobd, DESIGN §15). Each of those
// packages keeps its own op table, error codes and handshake; what they
// share — and what lives here, once — is the frame and the field
// encoding.
//
// Every message, both directions, is one frame:
//
//	uint32  length of the rest of the frame (op + seq + payload)
//	uint8   op code
//	uint32  seq — client-chosen; the server echoes it in the reply
//	...     op-specific payload
//
// All integers are little-endian; strings are uint16 length + bytes,
// byte strings uint32 length + bytes. A payload must be consumed
// exactly: trailing bytes in a frame are a protocol error.
//
// Buffer ownership. ReadFrame's payload aliases the caller's reusable
// frame buffer and dies at the next ReadFrame. Everything a Decoder
// hands out that can outlive the frame — Str, Bytes, StrIn — is a copy;
// nothing it returns aliases its input.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// MaxFrame bounds a frame's self-declared length; anything larger is
	// treated as stream corruption, not an allocation request.
	MaxFrame = 1 << 21
	// FrameOverhead is op + seq, the part of the header the length
	// field counts.
	FrameOverhead = 5
	// HeaderSize is the whole header: length, op, seq.
	HeaderSize = 4 + FrameOverhead
)

// FrameBytes is the on-wire size of a frame with the given payload.
func FrameBytes(payloadLen int) uint64 { return uint64(HeaderSize + payloadLen) }

// AppendHeader appends the header of a frame whose payload will be
// payloadLen bytes. A caller that encodes the payload in place passes 0
// and calls EndFrame when the payload is complete.
func AppendHeader(b []byte, op byte, seq uint32, payloadLen int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(FrameOverhead+payloadLen))
	b = append(b, op)
	return binary.LittleEndian.AppendUint32(b, seq)
}

// EndFrame fixes the length of the frame whose header starts at
// b[start] to cover everything appended since.
func EndFrame(b []byte, start int) {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
}

// WriteFrame appends one frame to w. The caller flushes. The header is
// built in w's own buffer: a local array handed to w.Write would escape
// to the heap, one allocation per frame.
func WriteFrame(w *bufio.Writer, op byte, seq uint32, payload []byte) error {
	if w.Available() < HeaderSize {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if _, err := w.Write(AppendHeader(w.AvailableBuffer(), op, seq, len(payload))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, reusing buf when it is big enough. It
// returns the (possibly grown) buffer for the next call; payload
// aliases it, so anything retained past the next read must be copied.
// A stream that ends between frames reports io.EOF, one that ends
// inside a frame io.ErrUnexpectedEOF. The length is peeked in r's own
// buffer for the same reason WriteFrame builds the header in w's.
func ReadFrame(r *bufio.Reader, buf []byte) (op byte, seq uint32, payload, bufOut []byte, err error) {
	bufOut = buf
	hdr, err := r.Peek(4)
	if err != nil {
		if len(hdr) > 0 && errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < FrameOverhead || n > MaxFrame {
		err = fmt.Errorf("wire: corrupt frame length %d", n)
		return
	}
	r.Discard(4) // cannot fail: Peek just buffered these bytes
	if cap(buf) < int(n) {
		buf = make([]byte, n)
		bufOut = buf
	}
	buf = buf[:n]
	if _, err = io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return
	}
	op = buf[0]
	seq = binary.LittleEndian.Uint32(buf[1:5])
	payload = buf[FrameOverhead:]
	return
}

// Payload append helpers.

func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func AppendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func AppendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func AppendBytes(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

var errTruncated = errors.New("wire: truncated frame payload")

// Decoder is a cursor over a frame payload. The first malformed read
// poisons it; Done reports that error, or complains about trailing
// bytes — a frame must be consumed exactly.
type Decoder struct {
	B   []byte
	err error
}

// take consumes n bytes, or poisons the decoder and returns nil.
func (d *Decoder) take(n int) []byte {
	if d.err != nil || len(d.B) < n {
		d.err = errTruncated
		return nil
	}
	v := d.B[:n]
	d.B = d.B[n:]
	return v
}

func (d *Decoder) U8() byte {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *Decoder) U16() uint16 {
	if v := d.take(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if v := d.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (d *Decoder) U64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Str reads a u16-prefixed string, copied out of the frame.
func (d *Decoder) Str() string { return d.StrIn(nil) }

// StrIn reads a u16-prefixed string through in (nil: a plain copy): a
// name the connection has seen recently costs no allocation. The result
// never aliases the frame.
func (d *Decoder) StrIn(in *Interner) string { return in.Intern(d.take(int(d.U16()))) }

// Bytes reads a u32-prefixed byte string, COPYING it out of the frame
// buffer: what callers keep of a frame outlives it.
func (d *Decoder) Bytes() []byte {
	n := d.U32()
	if d.err != nil || uint64(n) > uint64(len(d.B)) {
		d.err = errTruncated
		return nil
	}
	p := make([]byte, n)
	copy(p, d.B)
	d.B = d.B[n:]
	return p
}

// Done returns the accumulated decode error, or a protocol error when
// payload bytes are left over.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.B) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in frame payload", len(d.B))
	}
	return nil
}
