package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

type refFrame struct {
	op      byte
	seq     uint32
	payload []byte
}

// refParse is the model FrameReader is checked against: the frames of a
// whole stream held in memory, and the error that ends it.
func refParse(b []byte) (frames []refFrame, err error) {
	for {
		if len(b) == 0 {
			return frames, io.EOF
		}
		if len(b) < 4 {
			return frames, io.ErrUnexpectedEOF
		}
		n := binary.LittleEndian.Uint32(b)
		if n < FrameOverhead || n > MaxFrame {
			return frames, errCorrupt
		}
		if uint64(len(b)) < 4+uint64(n) {
			return frames, io.ErrUnexpectedEOF
		}
		f := b[4 : 4+n]
		frames = append(frames, refFrame{f[0], binary.LittleEndian.Uint32(f[1:]), f[FrameOverhead:]})
		b = b[4+n:]
	}
}

// errCorrupt stands for "refused, and not as an end of stream".
var errCorrupt = errors.New("corrupt frame length")

// cutReader delivers a stream in pieces: cuts[i] bytes per Read, cycling
// (a zero counts as one), never more than the caller has room for.
type cutReader struct {
	b    []byte
	cuts []int
	i    int
}

func (c *cutReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := max(1, c.cuts[c.i%len(c.cuts)])
	c.i++
	n = copy(p[:min(n, len(p))], c.b)
	c.b = c.b[n:]
	return n, nil
}

// checkStream reads stream through a FrameReader of the given chunk size
// over src, keeping the frames keep selects, and checks the aliasing
// contract against refParse: the same frames and the same final error; a
// payload's capacity is its length; every kept payload still holds its
// bytes after the whole stream has gone through the reader — and after
// every other kept payload was appended to.
func checkStream(t testing.TB, stream []byte, src io.Reader, chunk int, keep func(i int) bool) {
	t.Helper()
	want, wantErr := refParse(stream)
	r := NewFrameReader(src, chunk)
	type kept struct {
		i int
		p []byte
	}
	var keeps []kept
	for i := 0; ; i++ {
		op, seq, p, err := r.Next()
		if err != nil {
			if i != len(want) {
				t.Fatalf("chunk %d: frame %d of %d: %v", chunk, i, len(want), err)
			}
			if wantErr == errCorrupt {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					t.Fatalf("chunk %d: a corrupt length ended the stream with %v", chunk, err)
				}
			} else if err != wantErr {
				t.Fatalf("chunk %d: stream ended with %v, want %v", chunk, err, wantErr)
			}
			break
		}
		if i >= len(want) {
			t.Fatalf("chunk %d: frame %d past the end of the stream", chunk, i)
		}
		if w := want[i]; op != w.op || seq != w.seq || !bytes.Equal(p, w.payload) {
			t.Fatalf("chunk %d: frame %d = op %d seq %d %d bytes, want op %d seq %d %d bytes", chunk, i, op, seq, len(p), w.op, w.seq, len(w.payload))
		}
		if cap(p) != len(p) {
			t.Fatalf("chunk %d: frame %d payload has cap %d over len %d", chunk, i, cap(p), len(p))
		}
		if keep(i) {
			r.Keep()
			keeps = append(keeps, kept{i, p})
		}
	}
	for _, k := range keeps {
		_ = append(k.p, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5)
	}
	for _, k := range keeps {
		if !bytes.Equal(k.p, want[k.i].payload) {
			t.Fatalf("chunk %d: kept payload of frame %d changed after it was handed out", chunk, k.i)
		}
	}
}

// randomStream is n frames whose sizes straddle everything a reader of
// the given chunk size branches on: empty, tiny, about a quarter chunk,
// about a whole one, and several chunks.
func randomStream(rng *rand.Rand, n, chunk int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		var size int
		switch rng.Intn(6) {
		case 0:
			size = 0
		case 1, 2:
			size = rng.Intn(24)
		case 3:
			size = max(0, chunk/4-12+rng.Intn(12))
		case 4:
			size = max(0, chunk-16+rng.Intn(24))
		case 5:
			size = chunk + rng.Intn(3*chunk)
		}
		b = AppendHeader(b, byte(rng.Intn(256)), rng.Uint32(), size)
		for j := 0; j < size; j++ {
			b = append(b, byte(rng.Intn(256)))
		}
	}
	return b
}

// TestFrameReaderSplits feeds random frame streams through every way a
// socket can split them — whole, a byte at a time, halves, data arriving
// with its EOF, random cuts — under every keep pattern, at chunk sizes
// from smaller than a header to larger than the stream, and cut short at
// every kind of place.
func TestFrameReaderSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	keepNone := func(int) bool { return false }
	keepAll := func(int) bool { return true }
	for round := 0; round < 40; round++ {
		chunk := []int{3, 16, 64, 100, 256, 1 << 12}[round%6]
		stream := randomStream(rng, 1+rng.Intn(40), min(chunk, 256))
		mask := rng.Uint64()
		keepSome := func(i int) bool { return mask>>(i%64)&1 == 1 }
		cuts := make([]int, 1+rng.Intn(8))
		for i := range cuts {
			cuts[i] = rng.Intn(2 * chunk)
		}
		for _, keep := range []func(int) bool{keepNone, keepAll, keepSome} {
			checkStream(t, stream, bytes.NewReader(stream), chunk, keep)
			checkStream(t, stream, iotest.OneByteReader(bytes.NewReader(stream)), chunk, keep)
			checkStream(t, stream, iotest.HalfReader(bytes.NewReader(stream)), chunk, keep)
			checkStream(t, stream, iotest.DataErrReader(bytes.NewReader(stream)), chunk, keep)
			checkStream(t, stream, &cutReader{b: stream, cuts: cuts}, chunk, keep)
			// Cut short: between frames is io.EOF, inside one
			// io.ErrUnexpectedEOF — refParse says which.
			short := stream[:rng.Intn(len(stream)+1)]
			checkStream(t, short, &cutReader{b: short, cuts: cuts}, chunk, keep)
		}
		// A length no frame can have, behind good frames.
		for _, n := range []uint32{0, FrameOverhead - 1, MaxFrame + 1, 1 << 31} {
			bad := append(AppendU32(append([]byte(nil), stream...), n), 1, 2, 3, 4, 5, 6, 7, 8)
			checkStream(t, bad, &cutReader{b: bad, cuts: cuts}, chunk, keepSome)
		}
	}
}

// TestFrameReaderUnkeptAllocatesNothing: a reader nothing was kept of
// works in its first chunk for good, however the stream is split and
// wherever frames straddle the chunk's end; a frame over the chunk size
// costs the one bigger chunk, which then serves.
func TestFrameReaderUnkeptAllocatesNothing(t *testing.T) {
	const chunk = 512
	rng := rand.New(rand.NewSource(7))
	var stream []byte
	frames := 0
	for ; len(stream) < 40*chunk; frames++ {
		size := rng.Intn(chunk / 2)
		if frames == 5 {
			size = 3 * chunk
		}
		stream = append(AppendHeader(stream, 2, uint32(frames), size), make([]byte, size)...)
	}
	src := &cutReader{cuts: []int{1, 700, 3, 64, 2000, 9}}
	r := NewFrameReader(src, chunk)
	if n := testing.AllocsPerRun(20, func() {
		src.b = stream
		for i := 0; i < frames; i++ {
			if _, seq, _, err := r.Next(); err != nil || seq != uint32(i) {
				t.Fatalf("frame %d: seq %d, %v", i, seq, err)
			}
		}
		if _, _, _, err := r.Next(); err != io.EOF {
			t.Fatalf("end of stream: %v", err)
		}
	}); n != 0 {
		t.Errorf("%.1f allocations per pass of %d frames over a warm un-kept reader, want 0", n, frames)
	}
}

// FuzzFrameReader: arbitrary bytes as the stream, arbitrary cuts, chunk
// size and keep pattern, against the model.
func FuzzFrameReader(f *testing.F) {
	two := append(AppendHeader(nil, 6, 9, 3), 1, 2, 3)
	two = AppendHeader(two, 16, 10, 0)
	f.Add(two, []byte{1}, uint16(64), uint64(1))
	f.Add(two[:len(two)-2], []byte{3, 200}, uint16(4), ^uint64(0))
	f.Add(append(append([]byte(nil), two...), 4, 0, 0, 0, 1), []byte{0}, uint16(0), uint64(2))
	f.Add(randomStream(rand.New(rand.NewSource(1)), 12, 64), []byte{7, 1, 90}, uint16(64), uint64(0x5555))
	f.Fuzz(func(t *testing.T, stream, cuts []byte, chunk uint16, mask uint64) {
		if len(cuts) == 0 {
			cuts = []byte{0}
		}
		ns := make([]int, len(cuts))
		for i, c := range cuts {
			ns[i] = int(c) * (1 + i%3*40) // up to ~20 KiB a Read
		}
		checkStream(t, stream, &cutReader{b: stream, cuts: ns}, int(chunk), func(i int) bool { return mask>>(i%64)&1 == 1 })
	})
}
