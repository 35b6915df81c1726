// Package ingest implements the long-lived, sharded ingest server for
// sensor fleets, and the matching sensor-side client. It replaces the
// one-shot listener the fleet simulator grew up with: a Server is created
// once, accepts identified sensor connections for as long as the deployment
// runs, and is torn down deliberately with Drain (finish what was accepted)
// or Close (hard stop).
//
// # Architecture
//
// One TCP listener is shared by Shards accept loops. Each shard owns a
// bounded connection queue and a fixed pool of session workers; an accept
// loop enqueues into its own shard first and sweeps the others when that
// shard is full. When every queue is full the server does not spawn a
// goroutine per connection — it sheds load explicitly: the connection's
// hello is consumed and a typed StatusOverloaded reject is written back, so
// the sensor learns to back off instead of inferring failure from a reset.
// Shed connections are counted in the metrics registry (ingest.shed_*).
//
// Sessions are keyed by the cleartext sensor id in the hello. A registry
// tracks, per sensor, how many frames have been delivered across all of its
// connections — the resume index a reconnecting sensor is handed — and
// whether a connection currently owns the sensor, so a duplicate claim is
// refused (StatusDuplicate) instead of corrupting the stream.
//
// # Wire protocol
//
// All integers are big-endian. The sensor opens with a 5-byte hello:
//
//	[1B magic 0xA9][4B sensor id]
//
// The server answers with a 5-byte ack, [1B status][4B resume index]. On
// StatusAccept the sensor streams its remaining frames — length-prefixed,
// sealed by seccomm — starting at the resume index, and the server
// confirms completion with a final [1B status][4B delivered count] ack. Any
// other status is a typed reject; StatusOverloaded, StatusDraining, and
// StatusDuplicate are transient (the client retries them on a separate
// budget from reconnects), StatusRefused is permanent.
//
// # Lifecycle
//
//	srv, _ := ingest.NewServer(cfg)
//	srv.Listen("127.0.0.1:0")
//	go srv.Serve()                // blocks until Drain/Close, like http.Server
//	...
//	srv.Drain(ctx)                // stop accepting, let live sessions finish
//
// Serve returns ErrClosed after a deliberate shutdown. Drain closes the
// listener, refuses queued-but-unstarted connections with StatusDraining,
// and waits for in-flight sessions to complete; if its context expires
// first it escalates to Close semantics so teardown stays bounded. Close
// additionally severs every live connection. Both leave zero goroutines
// behind.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/seccomm"
)

// Wire-format constants. The magic byte guards against a stray peer (or a
// legacy 2-byte hello) being misread as a sensor id.
const (
	helloMagic = 0xA9
	helloLen   = 5 // [1B magic][4B sensor id]
	ackLen     = 5 // [1B status][4B index]
)

// DefaultIOTimeout is the per-frame read/write deadline the Client and the
// Server apply when their IOTimeout is zero.
const DefaultIOTimeout = 5 * time.Second

// ErrClosed is returned by Serve after Drain or Close stops the server, in
// the manner of http.ErrServerClosed.
var ErrClosed = errors.New("ingest: server closed")

// Status is the server's one-byte verdict on a connection, carried in the
// hello ack. The zero value is invalid so an all-zero ack cannot be
// mistaken for an accept.
type Status uint8

// The wire statuses.
const (
	// StatusAccept admits the connection; the ack's index is the resume
	// point (first undelivered frame).
	StatusAccept Status = iota + 1
	// StatusOverloaded sheds the connection because every shard queue is
	// full. Transient: the sensor should back off and redial.
	StatusOverloaded
	// StatusDuplicate refuses the connection because another connection
	// currently owns the sensor id. Transient: the owner is usually a
	// dying predecessor about to release its claim.
	StatusDuplicate
	// StatusDraining refuses the connection because the server is shutting
	// down gracefully. Transient from the protocol's point of view — a
	// peer server may be taking over.
	StatusDraining
	// StatusRefused rejects the sensor permanently (the handler refused to
	// open a session, e.g. an unknown sensor id).
	StatusRefused
)

// String names the status for logs and errors.
func (s Status) String() string {
	switch s {
	case StatusAccept:
		return "accept"
	case StatusOverloaded:
		return "overloaded"
	case StatusDuplicate:
		return "duplicate"
	case StatusDraining:
		return "draining"
	case StatusRefused:
		return "refused"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Transient reports whether a rejected sensor may reasonably retry.
func (s Status) Transient() bool {
	return s == StatusOverloaded || s == StatusDuplicate || s == StatusDraining
}

// known reports whether s is one of the defined wire statuses. An unknown
// byte must never be interpreted — Transient() would silently treat it as
// permanent and a RejectedError would carry a meaningless code — so readers
// validate with this before converting.
func (s Status) known() bool {
	return s >= StatusAccept && s <= StatusRefused
}

// RejectedError is returned by Client.Run when the server answered the
// hello with a non-accept status. Transient statuses are retried by the
// client itself (up to RejectAttempts); a RejectedError that escapes Run
// means the retry budget is spent or the reject was permanent.
type RejectedError struct {
	Status Status
}

func (e *RejectedError) Error() string {
	return "ingest: server rejected connection: " + e.Status.String()
}

// ProtocolError reports a malformed wire value from the peer — a protocol
// violation, as opposed to a transport failure. It is not retryable: a peer
// that speaks the wrong protocol will keep speaking it.
type ProtocolError struct {
	// What names the wire field that was malformed.
	What string
	// Value is the offending byte.
	Value uint8
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("ingest: protocol violation: %s 0x%02x", e.What, e.Value)
}

// FrameError wraps a server-side failure to read frame Index off the wire.
// The server passes it to Session.Close so handlers can distinguish a
// transport failure mid-stream (e.g. a read deadline expiry — check with
// seccomm.IsTimeout on Unwrap) from their own processing errors.
type FrameError struct {
	Index int
	Err   error
}

func (e *FrameError) Error() string { return fmt.Sprintf("frame %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying transport error to errors.Is/As.
func (e *FrameError) Unwrap() error { return e.Err }

// terminalError marks a client-side failure that no redial can fix —
// injected faults, encode/seal failures, protocol violations. Transport
// errors stay resumable.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// Terminal marks err as non-resumable: Client.Run returns it immediately
// instead of consuming the reconnect budget. FrameSource implementations
// use it to distinguish "this stream is dead" from "this link hiccuped".
func Terminal(err error) error {
	if err == nil {
		return nil
	}
	return &terminalError{err: err}
}

// IsTerminal reports whether err (or anything it wraps) was marked with
// Terminal.
func IsTerminal(err error) bool {
	var t *terminalError
	return errors.As(err, &t)
}

// Handler is the application half of a Server: it turns identified
// connections into Sessions and hears about connections that never
// identified themselves. Implementations must be safe for concurrent use —
// every worker calls into the same Handler.
type Handler interface {
	// Open starts a session for an accepted connection that identified
	// itself as sensorID. delivered is the registry's resume index — how
	// many frames earlier connections already delivered for this sensor.
	// Returning an error refuses the connection with StatusRefused.
	Open(sensorID, delivered int) (Session, error)
	// Rejected reports a connection refused after it identified itself
	// (currently only StatusDuplicate: the sensor id was still claimed by
	// a live connection after ClaimWait).
	Rejected(sensorID int, status Status)
	// Unattributed reports a connection that failed before its hello
	// identified a sensor: a bad magic byte (a *ProtocolError, matchable
	// with errors.As) or silence until the read deadline.
	Unattributed(err error)
}

// Session is one connection's server-side stream state, created by
// Handler.Open and retired by Close exactly once.
type Session interface {
	// Total is the number of frames the sensor is assigned over its
	// lifetime; the connection streams frames [delivered, Total).
	Total() int
	// Frame processes one sealed frame. index is the frame's lifetime
	// position. Returning an error ends the connection (the error reaches
	// Close); returning nil advances the registry's delivered count.
	Frame(index int, msg []byte) error
	// Close retires the session. err is nil after a complete, confirmed
	// stream; a *FrameError after a transport failure mid-stream; the
	// Frame error verbatim when Frame ended the connection; otherwise the
	// hello/final-ack failure.
	Close(err error)
}

// Stager taps the server's delivery path for the streaming pipeline
// (decode → stage → project, see internal/staging and internal/projection):
// Admit fires once per accepted session, StageFrame once per delivered real
// frame — after Session.Frame accepted it, so pacer dummies and failed
// frames never reach it — and SessionEnd when the connection retires
// (completed reports whether the final ack went out). A nil
// ServerConfig.Stager leaves the delivery path exactly as it was.
//
// Implementations must be safe for concurrent use: calls for one sensor are
// ordered (the session registry serializes a sensor's connections) but
// different sensors call in from different workers at once. msg must not be
// retained past the call — decode or copy synchronously.
type Stager interface {
	Admit(sensorID, resume, total int)
	StageFrame(sensorID, index int, msg []byte)
	SessionEnd(sensorID int, completed bool)
}

// HandlerFuncs adapts plain functions to Handler; nil fields are no-ops
// (a nil OpenFunc refuses every connection).
type HandlerFuncs struct {
	OpenFunc         func(sensorID, delivered int) (Session, error)
	RejectedFunc     func(sensorID int, status Status)
	UnattributedFunc func(err error)
}

// Open implements Handler.
func (h HandlerFuncs) Open(sensorID, delivered int) (Session, error) {
	if h.OpenFunc == nil {
		return nil, errors.New("ingest: no open func")
	}
	return h.OpenFunc(sensorID, delivered)
}

// Rejected implements Handler.
func (h HandlerFuncs) Rejected(sensorID int, status Status) {
	if h.RejectedFunc != nil {
		h.RejectedFunc(sensorID, status)
	}
}

// Unattributed implements Handler.
func (h HandlerFuncs) Unattributed(err error) {
	if h.UnattributedFunc != nil {
		h.UnattributedFunc(err)
	}
}

// writeAck writes one [status][index] ack under a write deadline.
func writeAck(conn net.Conn, st Status, index uint32, timeout time.Duration) error {
	var buf [ackLen]byte
	buf[0] = byte(st)
	binary.BigEndian.PutUint32(buf[1:], index)
	_, err := writeFullDeadline(conn, buf[:], timeout)
	return err
}

// readAck reads one [status][index] ack under a read deadline. An unknown
// status byte is a *ProtocolError, never a Status: letting it through would
// feed garbage into Transient() and RejectedError.
func readAck(conn net.Conn, timeout time.Duration) (Status, int, error) {
	var buf [ackLen]byte
	if err := seccomm.ReadFullDeadline(conn, buf[:], timeout); err != nil {
		return 0, 0, err
	}
	st := Status(buf[0])
	if !st.known() {
		return 0, 0, &ProtocolError{What: "ack status", Value: buf[0]}
	}
	return st, int(binary.BigEndian.Uint32(buf[1:])), nil
}

// writeFullDeadline writes buf to conn under a write deadline (the raw
// cleartext hello/ack bytes; frames use seccomm.AppendFrame + this). It
// returns how many bytes were written: a deadline can expire after a
// partial write, and a retrying caller must resume from that offset —
// resending the whole buffer would duplicate the transmitted prefix and
// corrupt the stream.
func writeFullDeadline(conn net.Conn, buf []byte, timeout time.Duration) (int, error) {
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return 0, err
		}
		defer conn.SetWriteDeadline(time.Time{})
	}
	return conn.Write(buf)
}

// sleepCtx sleeps for d or until ctx is done; it reports whether the full
// sleep elapsed.
func sleepCtx(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return false
	case <-time.After(d):
		return true
	}
}
