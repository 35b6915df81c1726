package seccomm

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts SetReadDeadline calls on the conn it wraps.
type countingConn struct {
	net.Conn
	deadlines atomic.Int64
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// frames builds the wire bytes of n frames of the given size, frame i
// filled with byte i.
func frames(t testing.TB, n, size int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		var err error
		if buf, err = AppendFrame(buf, bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestFrameReaderBufferedFramesSkipDeadline pins that a frame the reader
// already holds whole is returned without a deadline call, while the read
// that has to go to the socket sets and clears one.
func TestFrameReaderBufferedFramesSkipDeadline(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	conn := &countingConn{Conn: server}
	fr := NewFrameReader(conn, 0)
	errc := make(chan error, 1)
	go func() {
		_, err := client.Write(frames(t, 4, 64))
		errc <- err
	}()
	for i := 0; i < 4; i++ {
		msg, err := fr.ReadFrame(time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(msg) != 64 || msg[0] != byte(i) {
			t.Fatalf("frame %d = %d bytes of %d", i, len(msg), msg[0])
		}
		if got := conn.deadlines.Load(); got != 2 {
			t.Fatalf("after frame %d: %d deadline calls, want 2 (set and clear for the one socket read)", i, got)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestFrameReaderStalledConnTimesOut checks that skipping the deadline for
// buffered frames leaves it in force whenever the socket must be read: an
// idle conn and a conn stalled mid-frame both time out.
func TestFrameReaderStalledConnTimesOut(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	conn := &countingConn{Conn: server}
	fr := NewFrameReader(conn, 0)
	if _, err := fr.ReadFrame(30 * time.Millisecond); !IsTimeout(err) {
		t.Fatalf("idle conn: err = %v, want timeout", err)
	}
	// One whole frame plus the header and half the body of the next: the
	// first is served from the buffer, the second must wait for the socket.
	wire := frames(t, 2, 64)
	errc := make(chan error, 1)
	go func() {
		_, err := client.Write(wire[:len(wire)-32])
		errc <- err
	}()
	if _, err := fr.ReadFrame(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	before := conn.deadlines.Load()
	if _, err := fr.ReadFrame(30 * time.Millisecond); !IsTimeout(err) {
		t.Fatalf("conn stalled mid-frame: err = %v, want timeout", err)
	}
	if conn.deadlines.Load() == before {
		t.Fatal("a read that had to wait on the socket set no deadline")
	}
}

// chunkConn serves a byte stream in reads whose lengths come from sizes,
// cycling; once the stream is spent it reports io.EOF. A size with the high
// bit set returns io.EOF together with the final bytes, the other legal
// shape of a stream's end.
type chunkConn struct {
	net.Conn
	data  []byte
	sizes []byte
	next  int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	size := 1
	eofWithData := false
	if len(c.sizes) > 0 {
		s := c.sizes[c.next%len(c.sizes)]
		c.next++
		size = 1 + int(s&0x7f)
		eofWithData = s&0x80 != 0
	}
	n := copy(p[:min(len(p), size)], c.data)
	c.data = c.data[n:]
	if len(c.data) == 0 && eofWithData {
		return n, io.EOF
	}
	return n, nil
}

func (c *chunkConn) SetReadDeadline(time.Time) error { return nil }

// FuzzFrameReader checks the buffered reader against the plain one: over
// any byte stream, split into any sequence of short reads, FrameReader
// returns the same frames as ReadFrame on the whole stream and ends with
// the same error.
func FuzzFrameReader(f *testing.F) {
	whole := frames(f, 3, 5)
	f.Add(whole, []byte{0})
	f.Add(whole, []byte{3, 0x81, 64})
	f.Add(whole[:len(whole)-2], []byte{1, 2})
	f.Add(whole[:1], []byte{0x80})
	f.Add([]byte{}, []byte{})
	f.Add(frames(f, 2, 300), []byte{0x7f, 10})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		ref := bytes.NewReader(data)
		fr := NewFrameReader(&chunkConn{data: data, sizes: sizes}, 16)
		for i := 0; ; i++ {
			want, wantErr := ReadFrame(ref)
			got, gotErr := fr.ReadFrame(time.Second)
			if gotErr != wantErr {
				t.Fatalf("frame %d: err = %v, want %v", i, gotErr, wantErr)
			}
			if wantErr != nil {
				if !errors.Is(wantErr, io.EOF) && !errors.Is(wantErr, io.ErrUnexpectedEOF) {
					t.Fatalf("frame %d: reference error %v is not an end of stream", i, wantErr)
				}
				return
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d = %x, want %x", i, got, want)
			}
		}
	})
}

// loopConn serves an endless stream by replaying buf.
type loopConn struct {
	net.Conn
	buf []byte
	pos int
}

func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.buf[c.pos:])
	c.pos = (c.pos + n) % len(c.buf)
	return n, nil
}

func (c *loopConn) SetReadDeadline(time.Time) error { return nil }

func BenchmarkFrameReader(b *testing.B) {
	const size = 64
	fr := NewFrameReader(&loopConn{buf: frames(b, 64, size)}, 0)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fr.ReadFrame(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen(b *testing.B) {
	keys := map[CipherKind][]byte{
		ChaCha20Stream:   chachaKey(),
		AES128Block:      aesKey(),
		ChaCha20Poly1305: chachaKey(),
	}
	for _, kind := range []CipherKind{ChaCha20Stream, AES128Block, ChaCha20Poly1305} {
		b.Run(kind.String(), func(b *testing.B) {
			s, err := NewSealer(kind, keys[kind])
			if err != nil {
				b.Fatal(err)
			}
			sealed, err := s.Seal(make([]byte, 64))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Open(sealed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
