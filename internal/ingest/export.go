package ingest

// Node-side hooks for a cluster gateway (internal/cluster): session state
// export/import for migrating a sensor between ingest nodes, and the small
// cleartext protocol helpers a gateway needs to route a connection by its
// hello without re-implementing the wire format.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/seccomm"
)

// SessionState is one sensor's migratable registry state: everything a peer
// node needs to continue the hello/resume/final-ack handshake exactly where
// this node left it. Delivered is the resume index the new node hands the
// sensor; Done records that the final ack already went out, so a completed
// sensor that reconnects after migration is short-circuited instead of
// re-streamed.
type SessionState struct {
	SensorID  int
	Delivered int
	Done      bool
}

// ExportSession removes and returns sensorID's session state for migration
// to another node. It reports ok=false when the sensor is unknown, when a
// live connection still owns it (a stream cannot move mid-flight — sever it
// first, or route the sensor back to this node), or when the entry has
// already passed its eviction TTL. The TTL check uses the registry's
// injected Clock, so a gateway sharing that clock and a sweep racing the
// export agree on whether the session still exists: an entry the sweep
// would delete is never handed to another node.
func (s *Server) ExportSession(sensorID int) (SessionState, bool) {
	delivered, done, ok := s.sessions.export(sensorID)
	if !ok {
		return SessionState{}, false
	}
	return SessionState{SensorID: sensorID, Delivered: delivered, Done: done}, true
}

// ImportSession seeds the registry with a session migrated from another
// node. It refuses to overwrite an entry a live connection owns — the
// connection's view is authoritative — and otherwise merges by keeping the
// larger delivered index, so a duplicated or delayed import can never
// rewind a stream.
func (s *Server) ImportSession(st SessionState) error {
	if st.Delivered < 0 {
		return fmt.Errorf("ingest: import session %d: negative delivered index %d", st.SensorID, st.Delivered)
	}
	if !s.sessions.importEntry(st.SensorID, st.Delivered, st.Done) {
		return fmt.Errorf("ingest: import session %d: a live connection owns it", st.SensorID)
	}
	return nil
}

// PeekSession returns sensorID's current registry state without removing
// it. ok is false for unknown or TTL-expired entries — the same visibility
// rule the sweep and ExportSession apply, so every tier reading the
// registry sees one truth.
func (s *Server) PeekSession(sensorID int) (SessionState, bool) {
	r := &s.sessions
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.s[sensorID]
	if e == nil || r.expiredLocked(e, r.now()) {
		return SessionState{}, false
	}
	return SessionState{SensorID: sensorID, Delivered: e.delivered, Done: e.done}, true
}

// ExportSessions snapshots every idle, unexpired session entry. A draining
// gateway calls it after the node's connections are severed to migrate the
// node's whole session population; entries still owned by a racing new
// connection are skipped.
func (s *Server) ExportSessions() []SessionState {
	return s.sessions.snapshot()
}

// ReadHello consumes one cleartext hello from conn under a read deadline
// and returns the sensor id it identifies — the first read of a server
// connection and of a gateway one. A bad magic byte is a *ProtocolError.
func ReadHello(conn net.Conn, timeout time.Duration) (int, error) {
	var hello [helloLen]byte
	if err := seccomm.ReadFullDeadline(conn, hello[:], timeout); err != nil {
		return 0, err
	}
	if hello[0] != helloMagic {
		return 0, &ProtocolError{What: "hello magic", Value: hello[0]}
	}
	return int(binary.BigEndian.Uint32(hello[1:])), nil
}

// WriteHello writes the cleartext hello identifying sensorID under a write
// deadline — what a client sends first. A gateway does not replay it: it
// reads the hello and hands the connection, with the sensor id, to a node's
// Server.Handoff.
func WriteHello(conn net.Conn, sensorID int, timeout time.Duration) error {
	var hello [helloLen]byte
	hello[0] = helloMagic
	binary.BigEndian.PutUint32(hello[1:], uint32(sensorID))
	_, err := writeFullDeadline(conn, hello[:], timeout)
	return err
}

// WriteReject answers a hello with a non-accept status, for gateways that
// must shed or refuse a connection themselves (no routable node, overload).
// st must be a reject status: accepting is the node's decision alone.
func WriteReject(conn net.Conn, st Status, timeout time.Duration) error {
	if !st.known() || st == StatusAccept {
		return errors.New("ingest: WriteReject requires a known reject status")
	}
	return writeAck(conn, st, 0, timeout)
}
