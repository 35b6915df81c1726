package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// readPiped feeds in to read over a net.Pipe: a writer goroutine sends the
// bytes and closes its end, so a short input ends in EOF rather than a
// hang, and the reader's Close releases a writer blocked on unread bytes.
func readPiped[T any](in []byte, read func(net.Conn) (T, error)) (T, error) {
	cl, sv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		cl.Write(in)
		cl.Close()
	}()
	v, err := read(sv)
	sv.Close()
	<-done
	return v, err
}

// FuzzHandshake feeds arbitrary bytes through the three cleartext decoders
// of the handshake and frame marker: ReadHello, readAck and Unmark. None may
// panic. A well-formed input decodes to its fields; a bad magic, status or
// marker byte is a *ProtocolError naming that byte; a short hello or ack is
// a transport error, never a *ProtocolError.
func FuzzHandshake(f *testing.F) {
	f.Add([]byte{helloMagic, 0, 0, 0, 7}, []byte{byte(StatusAccept), 0, 0, 0, 3}, []byte{markerReal, 1, 2})
	f.Add([]byte{0x00, 0, 0, 0, 1}, []byte{0xff, 0, 0, 0, 0}, []byte{markerDummy})
	f.Add([]byte{helloMagic, 1}, []byte{byte(StatusRefused)}, []byte{})
	f.Add([]byte{helloMagic, 0xff, 0xff, 0xff, 0xff, 9, 9}, []byte{byte(StatusDraining), 0, 0, 1, 0, 5}, []byte{0x7f, 0})
	f.Fuzz(func(t *testing.T, hello, ack, payload []byte) {
		id, err := readPiped(hello, func(c net.Conn) (int, error) { return ReadHello(c, time.Second) })
		var pe *ProtocolError
		switch {
		case len(hello) < helloLen:
			if err == nil || errors.As(err, &pe) {
				t.Fatalf("short hello %x: err = %v, want a transport error", hello, err)
			}
		case hello[0] != helloMagic:
			if !errors.As(err, &pe) || pe.Value != hello[0] {
				t.Fatalf("hello %x: err = %v, want a *ProtocolError on 0x%02x", hello, err, hello[0])
			}
		case err != nil || id != int(binary.BigEndian.Uint32(hello[1:helloLen])):
			t.Fatalf("hello %x: id %d, err %v", hello, id, err)
		}

		type ackFields struct {
			st    Status
			index int
		}
		got, err := readPiped(ack, func(c net.Conn) (ackFields, error) {
			st, index, err := readAck(c, time.Second)
			return ackFields{st, index}, err
		})
		switch {
		case len(ack) < ackLen:
			if err == nil || errors.As(err, &pe) {
				t.Fatalf("short ack %x: err = %v, want a transport error", ack, err)
			}
		case !Status(ack[0]).known():
			if !errors.As(err, &pe) || pe.Value != ack[0] {
				t.Fatalf("ack %x: err = %v, want a *ProtocolError on 0x%02x", ack, err, ack[0])
			}
		case err != nil || got.st != Status(ack[0]) || got.index != int(binary.BigEndian.Uint32(ack[1:ackLen])):
			t.Fatalf("ack %x: got %+v, err %v", ack, got, err)
		}

		data, dummy, err := Unmark(payload)
		switch {
		case len(payload) == 0:
			if !errors.As(err, &pe) {
				t.Fatalf("empty payload: err = %v, want a *ProtocolError", err)
			}
		case payload[0] == markerReal:
			if err != nil || dummy || !bytes.Equal(data, payload[1:]) {
				t.Fatalf("real payload %x: data %x dummy %v err %v", payload, data, dummy, err)
			}
		case payload[0] == markerDummy:
			if err != nil || !dummy || data != nil {
				t.Fatalf("dummy payload %x: data %x dummy %v err %v", payload, data, dummy, err)
			}
		default:
			if !errors.As(err, &pe) || pe.Value != payload[0] {
				t.Fatalf("payload %x: err = %v, want a *ProtocolError on 0x%02x", payload, err, payload[0])
			}
		}
	})
}
