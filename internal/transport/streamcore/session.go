package streamcore

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// Config parameterizes a client Session for the fabric that owns it.
type Config struct {
	// Node is the callee every frame on this session addresses, used in
	// error text.
	Node string
	// Prefix is the owning fabric's error prefix ("httptransport",
	// "tcptransport").
	Prefix string
	// CallTimeout bounds one call end to end via Conn.SetDeadline; zero
	// disables the per-call deadline.
	CallTimeout time.Duration
	// MaxFrame bounds one response payload.
	MaxFrame int
	// Counters receives the session's traffic accounting (the owning
	// fabric's cumulative counters).
	Counters *Counters
}

// Session is one live client-side streaming session pinned to a target
// node: pipelined calls serialized by an internal mutex, with optional
// no-ack sends that queue and coalesce into the next flush. The wire
// frame carries From, so any caller may use a pooled Session.
type Session struct {
	conn Conn
	cfg  Config

	broken atomic.Bool
	closed atomic.Bool

	mu       sync.Mutex
	req      wire.Request // reused header; payload set per call
	outBuf   []byte       // acked-call stream frame scratch
	pending  [][]byte     // queued no-ack frames
	pendBufs [][]byte     // the pooled buffers pending's frames sit in
	pendBts  int          // queued bytes, drives the flush threshold
	writev   [][]byte     // net.Buffers scratch (WriteTo consumes a copy)
}

// NewSession wraps an opened Conn. The caller has already performed the
// backend's open handshake (HTTP response headers, TCP hello).
func NewSession(conn Conn, cfg Config) *Session {
	return &Session{conn: conn, cfg: cfg}
}

// Broken reports whether a connection-level failure was observed.
func (s *Session) Broken() bool { return s.broken.Load() }

// Closed reports whether the session was torn down.
func (s *Session) Closed() bool { return s.closed.Load() }

// Node returns the callee this session is pinned to.
func (s *Session) Node() string { return s.cfg.Node }

// Do sends one call over the session and reads its response. Fault checks
// are the caller's job (the fabrics run checkCall first). Any no-ack
// frames queued by SendNoAck flush ahead of the call in the same coalesced
// write, and the single response read may surface an earlier elided call's
// failure — which is exactly the contract: the next acknowledged call owns
// any queued failure. A connection-level failure marks the session broken;
// wrote reports whether any request bytes may have reached the peer (the
// at-most-once guard: callers may transparently retry a failed call on
// another connection only when wrote is false).
func (s *Session) Do(from, method string, payload any) (out any, err error, wrote bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err, wrote := s.exchangeLocked(from, method, payload)
	if err != nil {
		return nil, err, wrote
	}
	out, err = s.decode(raw)
	return out, err, true
}

// exchange is Do without the decode: the response frame's payload comes
// back aliasing the conn's read buffer and valid until the
// session's next read. The relay writes it on as it arrived; the caller
// must hold the session exclusively (pinned, or checked out of the pool)
// until it has used the frame.
func (s *Session) exchange(from, method string, payload any) (raw []byte, err error, wrote bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exchangeLocked(from, method, payload)
}

func (s *Session) exchangeLocked(from, method string, payload any) (raw []byte, err error, wrote bool) {
	if s.closed.Load() || s.broken.Load() {
		return nil, fmt.Errorf("%w: %s: stream closed", transport.ErrCrashed, s.cfg.Node), false
	}
	buf, frame, err := s.encodeFrame(s.outBuf[:0], from, method, payload, 0)
	s.outBuf = buf
	if err != nil {
		// An unregistered payload is a caller bug, not a broken session.
		return nil, fmt.Errorf("%s: encoding %s call to %s: %w", s.cfg.Prefix, method, s.cfg.Node, err), false
	}
	s.cfg.Counters.Calls.Add(1)
	s.cfg.Counters.RoundTrips.Add(1)
	s.cfg.Counters.BytesSent.Add(uint64(len(frame)))

	n, werr := s.writeLocked(frame)
	if werr != nil {
		return nil, fmt.Errorf("%w: %s unreachable: %v", transport.ErrCrashed, s.cfg.Node, werr), n > 0
	}
	_, raw, err = s.conn.ReadFrame(s.cfg.MaxFrame)
	if err != nil {
		s.broken.Store(true)
		return nil, fmt.Errorf("%w: %s unreachable: %v", transport.ErrCrashed, s.cfg.Node, err), true
	}
	s.clearDeadline()
	s.cfg.Counters.BytesReceived.Add(uint64(len(raw)))
	return raw, nil, true
}

// decode turns a response payload from exchange into Do's result; a
// payload that does not parse marks the session broken.
func (s *Session) decode(raw []byte) (any, error) {
	resp, err := wire.Binary{}.DecodeResponse(raw)
	if err != nil {
		s.broken.Store(true)
		return nil, fmt.Errorf("%s: decoding stream response from %s: %w", s.cfg.Prefix, s.cfg.Node, err)
	}
	if resp.Kind != "" {
		return nil, transport.KindToError(resp.Kind, resp.Err)
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.Payload, nil
}

// SendNoAck queues one call to ride the stream without an acknowledgement
// (wire.StreamFlagNoAck). The frame coalesces with later sends and flushes
// either at the byte threshold or ahead of the next Do. An error means the
// session broke and nothing further can be sent on it; whether the queued
// frames reached the peer is unknown, exactly like a failed acked call
// after wrote.
func (s *Session) SendNoAck(from, method string, payload any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() || s.broken.Load() {
		return fmt.Errorf("%w: %s: stream closed", transport.ErrCrashed, s.cfg.Node)
	}
	buf, frame, err := s.encodeFrame(GetFrame(), from, method, payload, wire.StreamFlagNoAck)
	if err != nil {
		PutFrame(buf)
		return fmt.Errorf("%s: encoding %s call to %s: %w", s.cfg.Prefix, method, s.cfg.Node, err)
	}
	s.pending = append(s.pending, frame)
	s.pendBufs = append(s.pendBufs, buf)
	s.pendBts += len(frame)
	s.cfg.Counters.Calls.Add(1)
	s.cfg.Counters.BytesSent.Add(uint64(len(frame)))
	s.cfg.Counters.AcksElided.Add(1)
	if s.pendBts < coalesceFlushBytes {
		return nil
	}
	if _, err := s.writeLocked(nil); err != nil {
		return fmt.Errorf("%w: %s unreachable: %v", transport.ErrCrashed, s.cfg.Node, err)
	}
	s.clearDeadline()
	return nil
}

// Flush forces any queued no-ack frames onto the wire without waiting for
// the byte threshold or the next acknowledged call — for callers that know
// the peer should see the queued work now (end of a chunk train that will
// pause before its final acked call).
func (s *Session) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil
	}
	if s.closed.Load() || s.broken.Load() {
		return fmt.Errorf("%w: %s: stream closed", transport.ErrCrashed, s.cfg.Node)
	}
	if _, err := s.writeLocked(nil); err != nil {
		return fmt.Errorf("%w: %s unreachable: %v", transport.ErrCrashed, s.cfg.Node, err)
	}
	s.clearDeadline()
	return nil
}

// encodeFrame encodes one request as a complete stream frame at the end of
// dst: the wire.Binary body goes straight after a reserved header, which is
// then written in front of it, so the body is never copied. It returns the
// grown buffer and the frame within it.
func (s *Session) encodeFrame(dst []byte, from, method string, payload any, extraFlags byte) (buf, frame []byte, err error) {
	s.req.From, s.req.Method, s.req.Payload = from, method, payload
	start := len(dst)
	buf, err = wire.Binary{}.AppendRequest(wire.BeginStreamFrame(dst), &s.req)
	s.req.Payload = nil
	if err != nil {
		return dst, nil, err
	}
	return buf, wire.EndStreamFrame(buf, start, extraFlags), nil
}

// writeLocked flushes the queued no-ack frames plus the optional final
// frame as one coalesced write under the per-call deadline, returning the
// pooled pending buffers either way. A write failure marks the session
// broken. Caller holds s.mu.
func (s *Session) writeLocked(final []byte) (int64, error) {
	bufs := s.writev[:0]
	bufs = append(bufs, s.pending...)
	if final != nil {
		bufs = append(bufs, final)
	}
	s.writev = bufs
	if len(bufs) > 1 {
		s.cfg.Counters.FramesCoalesced.Add(uint64(len(bufs)))
	}
	if s.cfg.CallTimeout > 0 {
		_ = s.conn.SetDeadline(time.Now().Add(s.cfg.CallTimeout))
	}
	n, err := s.conn.WriteFrames(net.Buffers(bufs))
	s.recyclePendingLocked()
	if err != nil {
		s.broken.Store(true)
	}
	return n, err
}

// clearDeadline disarms the per-call deadline after a completed exchange;
// backends that emulate deadlines with an abort timer must not fire while
// the session idles in a pool.
func (s *Session) clearDeadline() {
	if s.cfg.CallTimeout > 0 {
		_ = s.conn.SetDeadline(time.Time{})
	}
}

// Teardown closes the session's conn; idempotent, and safe to call
// concurrently with an in-flight Do (the conn close is what unblocks it).
// Queued no-ack frames are discarded — an abandoned session's elided
// chunks are never delivered, exactly like a vanished per-call client.
func (s *Session) Teardown() {
	if s.closed.Swap(true) {
		return
	}
	// Recycle queued frames and return the conn's pooled reader when no
	// call is in flight (then no read is either, and closed means none
	// follows); when one is (a racing fabric Close), leave them to the GC
	// rather than block the close on the call's deadline.
	if s.mu.TryLock() {
		s.recyclePendingLocked()
		s.conn.ReleaseReader()
		s.mu.Unlock()
	}
	_ = s.conn.Close()
}

// recyclePendingLocked drops the queued no-ack frames, returning their
// buffers to the frame pool. Caller holds s.mu.
func (s *Session) recyclePendingLocked() {
	for i, b := range s.pendBufs {
		PutFrame(b)
		s.pendBufs[i], s.pending[i] = nil, nil
	}
	s.pending, s.pendBufs, s.pendBts = s.pending[:0], s.pendBufs[:0], 0
}
