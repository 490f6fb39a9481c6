package transport

import (
	"errors"
	"fmt"
)

// Session is one streaming session on a Fabric: a pinned (from, to) pair
// exchanging pipelined calls over a single underlying connection. This is
// the paper's long-lived
// client<->aggregator session (Section 6.1's virtual session) surfaced at
// the transport: a client opens one Session per participation and runs
// check-in -> join -> chunked upload -> report over it. Sessions are NOT
// safe for concurrent use — one call at a time, like the protocol they
// carry.
type Session interface {
	// Call sends one request over the session and returns the response,
	// with the same error semantics as Fabric.Call (ErrCrashed,
	// ErrDropped, ... are transient; a broken underlying connection
	// surfaces as ErrCrashed).
	Call(method string, payload any) (any, error)
	// Close releases the underlying connection. It is idempotent; calls
	// after Close fail.
	Close() error
}

// StreamFabric is the session surface of the networked fabrics: one
// dedicated connection per session with pipelined calls.
type StreamFabric interface {
	Fabric
	// OpenSession opens a streaming session from from to to. It fails when
	// the peer is unknown, an injected fault applies, or the connection
	// cannot be established.
	OpenSession(from, to string) (Session, error)
}

// ElidingSession is the optional ack-elision surface of a Session: calls
// whose responses the caller does not need (non-final upload chunks) can be
// sent without waiting for an acknowledgement, halving the stream's round
// trips. Every session of a networked fabric offers it; the in-memory
// Network's per-call session does not, and callers there keep using Call.
type ElidingSession interface {
	Session
	// ElidesAcks reports whether SendNoAck may be used: true on a networked
	// session until it is closed.
	ElidesAcks() bool
	// SendNoAck sends one call without waiting for its response. The frame
	// may be buffered and coalesced with later frames; the next Call
	// flushes everything queued ahead of itself. If any elided call failed
	// on the server, the failure surfaces as that next Call's response.
	// An error return means the session broke and nothing further can be
	// sent on it (queued frames may or may not have reached the peer).
	SendNoAck(method string, payload any) error
}

// AckElidable lets a response payload opt its acknowledgement out of the
// wire: when a streamed call was sent no-ack and the handler's response
// payload reports AckElidable() == true (with no error attached), the
// server sends nothing back. Responses that do not implement the interface
// — and any error — always travel, carried on the session's next
// acknowledged frame.
type AckElidable interface {
	AckElidable() bool
}

// OpenSession opens a streaming session on any Fabric: backends that
// implement StreamFabric stream; everything else — the in-memory Network
// included — gets a per-call wrapper with identical semantics, so
// session-oriented callers (the client runtime) run unchanged on every
// backend.
func OpenSession(f Fabric, from, to string) (Session, error) {
	if sf, ok := f.(StreamFabric); ok {
		return sf.OpenSession(from, to)
	}
	return &callSession{f: f, from: from, to: to}, nil
}

// callSession is a Session on a fabric without connections: every Call is
// an independent Fabric.Call.
type callSession struct {
	f        Fabric
	from, to string
	closed   bool
}

// Call implements Session.
func (s *callSession) Call(method string, payload any) (any, error) {
	if s.closed {
		return nil, fmt.Errorf("%w: session closed", ErrCrashed)
	}
	return s.f.Call(s.from, s.to, method, payload)
}

// Close implements Session.
func (s *callSession) Close() error {
	s.closed = true
	return nil
}

// Stats counts a networked fabric's client-side traffic: outbound calls,
// request bytes written and response bytes read. The loadtest reports them
// as "bytes moved".
type Stats struct {
	// Calls counts outbound RPCs, acknowledged or not.
	Calls uint64
	// RoundTrips counts the outbound calls that waited for their response
	// frame: Calls less the no-ack sends.
	RoundTrips uint64
	// BytesSent counts request payload bytes written.
	BytesSent uint64
	// BytesReceived counts response payload bytes read.
	BytesReceived uint64
	// AcksElided counts calls whose acknowledgement never crossed
	// the wire: no-ack frames sent client-side plus responses suppressed
	// server-side (a loopback fabric counts both halves).
	AcksElided uint64
	// FramesCoalesced counts stream frames written as part of a
	// multi-frame batch (one writev instead of one syscall per frame).
	FramesCoalesced uint64
}

// Error kinds carried in wire.Response.Kind so transport-level failure
// semantics survive serialization — the fault-parity contract between the
// in-memory backend and every networked one (HTTP and raw TCP map through
// the same table).
const (
	// KindCrashed marks ErrCrashed on the wire.
	KindCrashed = "crashed"
	// KindDropped marks ErrDropped on the wire.
	KindDropped = "dropped"
	// KindPartitioned marks ErrPartitioned on the wire.
	KindPartitioned = "partitioned"
	// KindUnknownNode marks ErrUnknownNode on the wire.
	KindUnknownNode = "unknown-node"
)

// KindToError rebuilds the sentinel transport errors from a wire response
// kind so errors.Is works identically on every fabric (fault parity).
func KindToError(kind, msg string) error {
	switch kind {
	case KindCrashed:
		return fmt.Errorf("%w: %s", ErrCrashed, msg)
	case KindDropped:
		return fmt.Errorf("%w: %s", ErrDropped, msg)
	case KindPartitioned:
		return fmt.Errorf("%w: %s", ErrPartitioned, msg)
	case KindUnknownNode:
		return fmt.Errorf("%w: %s", ErrUnknownNode, msg)
	default:
		return fmt.Errorf("transport: %s: %s", kind, msg)
	}
}

// ErrorToKind classifies a handler error for the wire; the inverse of
// KindToError. Application errors ship with an empty kind.
func ErrorToKind(err error) string {
	switch {
	case errors.Is(err, ErrCrashed):
		return KindCrashed
	case errors.Is(err, ErrDropped):
		return KindDropped
	case errors.Is(err, ErrPartitioned):
		return KindPartitioned
	case errors.Is(err, ErrUnknownNode):
		return KindUnknownNode
	default:
		return ""
	}
}
