// Package wire is the one framing and payload codec under both network
// protocols of the stack: the register service (internal/netmem, DESIGN
// §8) and the job service (internal/jobd, DESIGN §12). Each of those
// packages keeps its own op table, error codes, handshake and drop
// policy; what they share — and what lives here, once — is the frame,
// the field encoding and the pipelined client core (Client).
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
// Buffer ownership. A FrameReader owns its connection's read chunk and
// parses frames where the socket Read put them; the payload it hands out
// aliases the chunk and dies at the next frame, unless the caller Keeps
// it — then the chunk is never rewound and lives, whole, for as long as
// anything points into it. What a Decoder hands out is a copy — Str,
// StrIn, Bytes — except BytesView, a sub-slice of its input for the
// caller that kept the frame.
package wire

import (
	"bufio"
	"bytes"
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

// FrameReader reads frames off one connection. It owns the connection's
// read chunk: it reads from the source straight into the chunk's free tail
// — as many frames as one Read delivers, up to the room left — and parses
// each frame where it landed, so a payload is never copied between the
// socket and whoever decodes it.
//
// The payload Next returns aliases the chunk and is valid until the next
// call of Next, unless the caller Keeps it. A reader nobody kept anything
// of slides the unread rest to the front of its one chunk and reads on, as
// bufio does, and allocates nothing after that chunk. A chunk something
// was kept of is never rewound: the reader fills its tail, and when the
// tail cannot hold the next frame moves to a fresh chunk, carrying the
// partial frame over. The old chunk is the collector's once the last kept
// payload is dropped — nothing is pooled, so no stale pointer can see a
// later frame's bytes.
type FrameReader struct {
	src  io.Reader
	size int    // of a chunk, unless a frame needs its own
	buf  []byte // the chunk; buf[r:w] is read and not yet parsed
	r, w int
	kept bool // a payload out of buf was kept: buf[:r] is never written again
}

// NewFrameReader returns a reader over src whose chunks are size bytes.
// The first chunk is allocated by the first Next.
func NewFrameReader(src io.Reader, size int) *FrameReader {
	return &FrameReader{src: src, size: size}
}

// Next reads one frame. A stream that ends between frames reports io.EOF,
// one that ends inside a frame io.ErrUnexpectedEOF. payload's capacity is
// its length: an append to it never reaches the frame behind it.
func (fr *FrameReader) Next() (op byte, seq uint32, payload []byte, err error) {
	if err = fr.fill(4); err != nil {
		if err == io.EOF && fr.w > fr.r {
			err = io.ErrUnexpectedEOF
		}
		return
	}
	n := binary.LittleEndian.Uint32(fr.buf[fr.r:])
	if n < FrameOverhead || n > MaxFrame {
		err = fmt.Errorf("wire: corrupt frame length %d", n)
		return
	}
	if err = fr.fill(4 + int(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return
	}
	end := fr.r + 4 + int(n)
	f := fr.buf[fr.r+4 : end : end]
	fr.r = end
	return f[0], binary.LittleEndian.Uint32(f[1:]), f[FrameOverhead:], nil
}

// Keep makes the payload of the last Next (and with it every payload handed
// out of the same chunk) valid for as long as the caller holds it.
func (fr *FrameReader) Keep() { fr.kept = true }

// Buffered is the number of bytes read off the source and not yet parsed.
func (fr *FrameReader) Buffered() int { return fr.w - fr.r }

// Wait blocks until a byte beyond those already buffered arrives, or the
// source fails. It overwrites the last payload like Next does.
func (fr *FrameReader) Wait() error { return fr.fill(fr.Buffered() + 1) }

// fill reads until need bytes are buffered from fr.r on.
func (fr *FrameReader) fill(need int) error {
	for empty := 0; fr.w-fr.r < need; {
		switch {
		case !fr.kept && need <= len(fr.buf):
			// Nobody points into the chunk: the unread rest goes to its
			// front and the Read gets everything behind it.
			if fr.r > 0 {
				fr.w, fr.r = copy(fr.buf, fr.buf[fr.r:fr.w]), 0
			}
		case fr.r+need > len(fr.buf):
			// A frame over a quarter chunk gets a chunk of exactly its
			// size: the tail a chunk is abandoned with is under a quarter
			// of it, or under the size of the frame that did not fit.
			size := fr.size
			if need > size/4 {
				size = need
			}
			buf := make([]byte, size)
			fr.w, fr.r = copy(buf, fr.buf[fr.r:fr.w]), 0
			fr.buf, fr.kept = buf, false
		}
		n, err := fr.src.Read(fr.buf[fr.w:])
		fr.w += n
		if fr.w-fr.r >= need {
			break // an error that came with enough bytes comes again
		}
		if err != nil {
			return err
		}
		if n == 0 {
			if empty++; empty == 100 {
				return io.ErrNoProgress
			}
		}
	}
	return nil
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

// Bytes reads a u32-prefixed byte string, COPYING it out of the frame:
// for the caller whose source is rewritten while the result is in use.
func (d *Decoder) Bytes() []byte { return bytes.Clone(d.BytesView()) }

// BytesView reads a u32-prefixed byte string WITHOUT copying it: the
// result is a sub-slice of the input, capacity clipped to its length, and
// lives as long as the input does (FrameReader.Keep).
func (d *Decoder) BytesView() []byte {
	n := d.U32()
	if d.err != nil || uint64(n) > uint64(len(d.B)) {
		d.err = errTruncated
		return nil
	}
	v := d.B[:n:n]
	d.B = d.B[n:]
	return v
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
