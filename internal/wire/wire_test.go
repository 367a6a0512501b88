package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// TestFrameRoundTrip pins the frame layout (the two protocols above
// must keep talking to their deployed peers) and FrameReader's contract:
// chunk reuse, the corrupt-length bound, and which EOF means what.
func TestFrameRoundTrip(t *testing.T) {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	payload := AppendBytes(AppendI64(AppendStr(nil, "ns"), -7), []byte{1, 2, 3})
	if err := WriteFrame(w, 6, 9, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(w, 16, 10, nil); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	want := append([]byte{byte(FrameOverhead + len(payload)), 0, 0, 0, 6, 9, 0, 0, 0}, payload...)
	want = append(want, 5, 0, 0, 0, 16, 10, 0, 0, 0)
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("wire bytes\n got %v\nwant %v", b.Bytes(), want)
	}
	if FrameBytes(len(payload))+FrameBytes(0) != uint64(len(want)) {
		t.Fatal("FrameBytes disagrees with the bytes written")
	}

	// In-place encoding must produce the same bytes.
	inPlace := AppendHeader(nil, 6, 9, 0)
	inPlace = append(inPlace, payload...)
	EndFrame(inPlace, 0)
	if !bytes.Equal(inPlace, want[:len(inPlace)]) {
		t.Fatalf("AppendHeader+EndFrame = %v", inPlace)
	}

	r := NewFrameReader(bytes.NewReader(want), 64)
	op, seq, got, err := r.Next()
	if err != nil || op != 6 || seq != 9 || !bytes.Equal(got, payload) {
		t.Fatalf("frame 1 = op %d seq %d %v (%v)", op, seq, got, err)
	}
	d := Decoder{B: got}
	if s, v, p := d.Str(), d.I64(), d.Bytes(); s != "ns" || v != -7 || !bytes.Equal(p, []byte{1, 2, 3}) || d.Done() != nil {
		t.Fatalf("decoded %q %d %v (%v)", s, v, p, d.Done())
	}
	// Trailing bytes are a protocol error; truncation poisons the
	// decoder instead of panicking.
	d = Decoder{B: got}
	d.Str()
	if err := d.Done(); err == nil || err == errTruncated {
		t.Fatalf("trailing payload bytes: Done = %v", err)
	}
	d = Decoder{B: got[:1]}
	if s, v := d.Str(), d.U64(); s != "" || v != 0 || d.Done() != errTruncated {
		t.Fatalf("truncated payload: %q %d (%v)", s, v, d.Done())
	}
	chunk := &got[:1][0]
	op, seq, got, err = r.Next()
	if err != nil || op != 16 || seq != 10 || len(got) != 0 {
		t.Fatalf("frame 2 = op %d seq %d %v (%v)", op, seq, got, err)
	}
	if _, _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("clean end of stream = %v, want io.EOF", err)
	}
	// Nothing was kept: a second pass over the stream lands in the same chunk.
	r.src = bytes.NewReader(want)
	if _, _, got, err = r.Next(); err != nil || &got[:1][0] != chunk {
		t.Fatalf("an un-kept reader did not reuse its chunk (%v)", err)
	}

	for cut := 1; cut < len(inPlace); cut++ {
		r := NewFrameReader(bytes.NewReader(inPlace[:cut]), 64)
		if _, _, _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream cut at byte %d = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	for _, n := range []uint32{0, FrameOverhead - 1, MaxFrame + 1, 1 << 31} {
		r := NewFrameReader(bytes.NewReader(AppendU32(nil, n)), 64)
		if _, _, _, err := r.Next(); err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("frame length %d = %v, want a corrupt-frame error", n, err)
		}
	}
}

// TestFrameHeaderDoesNotAllocate is the gate on the defect this package
// was extracted to fix once: a header array handed through an io
// interface escapes, one heap allocation per frame read or written.
func TestFrameHeaderDoesNotAllocate(t *testing.T) {
	payload := make([]byte, 48)
	var stream bytes.Buffer
	w := bufio.NewWriter(&stream)
	const frames = 64
	for i := 0; i < frames; i++ {
		WriteFrame(w, 2, uint32(i), payload)
	}
	w.Flush()
	raw := stream.Bytes()

	// 1000 bytes: frames straddle the chunk's end and are slid to its front.
	src := bytes.NewReader(raw)
	r := NewFrameReader(src, 1000)
	if n := testing.AllocsPerRun(50, func() {
		src.Reset(raw)
		for i := 0; i < frames; i++ {
			if _, _, _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("FrameReader.Next: %.1f allocations per %d frames, want 0", n, frames)
	}
	// A 16-byte writer forces the flush-for-header-room path every frame.
	for _, size := range []int{16, 4096} {
		w := bufio.NewWriterSize(io.Discard, size)
		if n := testing.AllocsPerRun(50, func() {
			for i := 0; i < frames; i++ {
				if err := WriteFrame(w, 2, uint32(i), payload); err != nil {
					t.Fatal(err)
				}
			}
		}); n != 0 {
			t.Errorf("WriteFrame (buffer %d): %.1f allocations per %d frames, want 0", size, n, frames)
		}
	}
}

// TestInterner: hits are allocation-free and shared, results never
// alias the input, and what the table retains is bounded however many
// distinct client-supplied names pass through it.
func TestInterner(t *testing.T) {
	var in Interner
	src := []byte("tenant-a")
	a := in.Intern(src)
	src[0] = 'X'
	if a != "tenant-a" {
		t.Fatalf("interned string aliases its input: %q", a)
	}
	names := [][]byte{[]byte("tenant-a"), []byte("tenant-b"), []byte("bench"), []byte("resize@2")}
	for _, n := range names {
		in.Intern(n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, n := range names {
			if in.Intern(n) != string(n) {
				t.Fatal("wrong string")
			}
		}
	}); n != 0 {
		t.Errorf("%.1f allocations per pass over resident names, want 0", n)
	}
	if in.Intern(nil) != "" || in.Intern([]byte{}) != "" {
		t.Fatal("empty name")
	}
	long := bytes.Repeat([]byte("x"), internMaxLen+1)
	if in.Intern(long) != string(long) {
		t.Fatal("long name mangled")
	}

	for i := 0; i < 10000; i++ {
		name := []byte(fmt.Sprintf("client-supplied-%05d", i))
		if got := in.Intern(name); got != string(name) {
			t.Fatalf("Intern(%q) = %q", name, got)
		}
	}
	resident, bytesHeld := 0, 0
	for _, set := range in.sets {
		for _, s := range set {
			if s != "" {
				resident++
				bytesHeld += len(s)
			}
			if len(s) > internMaxLen {
				t.Fatalf("a %d-byte name was retained", len(s))
			}
		}
	}
	if resident > 2*internSets || bytesHeld > 2*internSets*internMaxLen {
		t.Fatalf("%d names / %d bytes retained", resident, bytesHeld)
	}
	t.Logf("after 10000 distinct names: %d resident, %d bytes", resident, bytesHeld)
}

// Decoder read kinds for FuzzDecoder's script.
const (
	rdU8 = iota
	rdU16
	rdU32
	rdU64
	rdStr
	rdStrIn
	rdBytes
	rdKinds
)

// FuzzDecoder runs a script of reads over arbitrary payload bytes and
// checks the Decoder against a plain model of the format: it never
// panics; every value equals the model's; once a read runs past the end
// the decoder stays poisoned, later reads yield zero values, and Done
// reports the truncation; a fully decoded payload with bytes left over
// reports those (a frame must be consumed exactly); and nothing it
// returned changes when the input buffer is overwritten afterwards.
func FuzzDecoder(f *testing.F) {
	submit := AppendBytes(AppendI64(append(AppendU32(AppendStr(AppendStr(nil, "tenant-a"), "bench"), 1), 0), 0), []byte("payload!"))
	submitScript := []byte{rdStrIn, rdStrIn, rdU32, rdU8, rdU64, rdBytes}
	f.Add(submit, submitScript)
	f.Add(submit[:len(submit)-3], submitScript)
	f.Add(append(append([]byte(nil), submit...), 0), submitScript)
	f.Add(AppendStr(AppendU16(nil, 3), "quota"), []byte{rdU16, rdStr})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}, []byte{rdBytes})
	f.Add([]byte{}, []byte{rdU64})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		input := append([]byte(nil), data...)
		var in Interner
		d := Decoder{B: input}
		pos, poisoned := 0, false
		// need consumes n model bytes, or poisons the model.
		need := func(n int) []byte {
			if poisoned || len(data)-pos < n {
				poisoned = true
				return nil
			}
			v := data[pos : pos+n]
			pos += n
			return v
		}
		le := func(b []byte) (v uint64) {
			for i := len(b) - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			return v
		}
		var strs []string
		var wantStrs []string
		var slices [][]byte
		var wantSlices [][]byte
		for _, k := range script {
			switch k % rdKinds {
			case rdU8:
				if got, want := d.U8(), le(need(1)); uint64(got) != want {
					t.Fatalf("U8 = %d, want %d", got, want)
				}
			case rdU16:
				if got, want := d.U16(), le(need(2)); uint64(got) != want {
					t.Fatalf("U16 = %d, want %d", got, want)
				}
			case rdU32:
				if got, want := d.U32(), le(need(4)); uint64(got) != want {
					t.Fatalf("U32 = %d, want %d", got, want)
				}
			case rdU64:
				if got, want := d.U64(), le(need(8)); got != want {
					t.Fatalf("U64 = %d, want %d", got, want)
				}
			case rdStr, rdStrIn:
				var got string
				if k%rdKinds == rdStr {
					got = d.Str()
				} else {
					got = d.StrIn(&in)
				}
				want := string(need(int(le(need(2)))))
				if got != want {
					t.Fatalf("string = %q, want %q", got, want)
				}
				strs, wantStrs = append(strs, got), append(wantStrs, want)
			case rdBytes:
				got := d.Bytes()
				n := le(need(4))
				var want []byte
				if n > uint64(len(data)) {
					poisoned = true
				} else {
					want = need(int(n))
				}
				if !bytes.Equal(got, want) || (got == nil) != poisoned {
					t.Fatalf("Bytes = %v, want %v (poisoned %v)", got, want, poisoned)
				}
				slices, wantSlices = append(slices, got), append(wantSlices, want)
			}
		}
		err := d.Done()
		switch {
		case poisoned:
			if err != errTruncated {
				t.Fatalf("Done after a read past the end = %v", err)
			}
		case pos != len(data):
			if err == nil || err == errTruncated {
				t.Fatalf("Done with %d bytes left over = %v", len(data)-pos, err)
			}
		case err != nil:
			t.Fatalf("Done after exact consumption = %v", err)
		}
		// The frame buffer is reused for the next frame: nothing handed
		// out may change with it.
		for i := range input {
			input[i] ^= 0xff
		}
		for i := range strs {
			if strs[i] != wantStrs[i] {
				t.Fatalf("string %d aliases the input: %q, was %q", i, strs[i], wantStrs[i])
			}
		}
		for i := range slices {
			if !bytes.Equal(slices[i], wantSlices[i]) {
				t.Fatalf("slice %d aliases the input", i)
			}
		}
	})
}
