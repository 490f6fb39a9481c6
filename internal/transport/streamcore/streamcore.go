// Package streamcore is the networked fabric: everything the HTTP and
// raw-TCP backends have in common, which is everything except how a
// connection is dialed and accepted. A backend supplies a Dialer and hands
// accepted conns to Fabric.ServeConn; the node and route tables, fault
// checks, pooled calls, dedicated sessions, dispatch and discovery live here
// once (fabric.go), on top of one session engine over a small Conn
// interface (read-frame / write-frames / set-deadline / close):
//
//   - One frame format: every call is a wire.Binary frame inside a stream
//     frame, uncompressed. A frame whose magic, envelope version or flags
//     are unknown kills the session (wire versioning rule 1); nothing is
//     negotiated.
//
//   - Ack elision (wire.StreamFlagNoAck): calls whose responses the caller
//     does not need ride the stream unanswered. The server suppresses the
//     acknowledgement only when the handler's response opts in
//     (transport.AckElidable) and nothing failed; the first failure is held
//     and delivered on the session's next acknowledged frame, so
//     request/response framing never desynchronizes and errors are never
//     dropped.
//
//   - Encoded responses: a handler answer that is already a frame
//     (wire.EncodedResponse, a published model version) goes out behind a
//     stream header in one writev; every other frame is encoded in place
//     after a reserved header slot, never copied into a second buffer.
//
//   - Frame coalescing: queued no-ack frames and the next acknowledged
//     frame flush as one net.Buffers write — a writev on TCP — instead of
//     one syscall per frame.
//
//   - Deadline-per-call timeouts: every call arms Conn.SetDeadline for the
//     fabric's CallTimeout and clears it on completion.
//
//   - Relay (relay.go): a handler that answers with a transport.Forward
//     (the selector's in-session routing) has the server loop move the
//     frame. No-ack frames ride on unanswered over one upstream session
//     pinned to the inbound session for the train; the acknowledged frame
//     that ends the train is one exchange on that session, and its response
//     frame goes back to the caller as it arrived, never decoded. An elided
//     train therefore costs the second hop one round trip, like the first.
//
// Fault parity with the in-memory Network holds on both ends: checkCall
// runs client-side before every call, elided, relayed or not, and the
// server loop routes every decoded frame through the same dispatch.
package streamcore

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// MaxFrame bounds one frame payload in either direction (64 MiB ~ a
// 16M-parameter checkpoint frame), so a hostile length prefix cannot force
// a huge allocation.
const MaxFrame = 64 << 20

// maxIdleSessionsPerPeer caps the cached Call sessions kept per
// (address, node) pair; extras are closed on release.
const maxIdleSessionsPerPeer = 16

// coalesceFlushBytes is the queued no-ack byte threshold that forces a
// flush: enough to amortize a writev over several chunk frames, small
// enough that a pipelined 4096-element chunk train flushes every few
// frames instead of buffering a whole model in client memory.
const coalesceFlushBytes = 64 << 10

// Conn is one framed, ordered, full-duplex byte stream — the only thing a
// backend must supply. The TCP fabric wraps a net.Conn (NetConn); the HTTP
// fabric wraps its long-lived POST pipe on the client side and the
// request/response bodies on the server side.
type Conn interface {
	// ReadFrame reads the next stream frame, returning its flags and
	// payload. The payload aliases the Conn's internal scratch and is
	// valid only until the next ReadFrame. max bounds the declared
	// payload length. io.EOF before the first byte is a clean end of
	// stream.
	ReadFrame(max int) (flags byte, payload []byte, err error)
	// WriteFrames writes the buffers as one coalesced write (a writev
	// where the backend supports it), returning the bytes written.
	WriteFrames(bufs net.Buffers) (int64, error)
	// SetDeadline bounds all pending and future I/O; the zero time clears
	// it. Backends without native deadlines emulate with a reusable timer
	// that force-closes the conn.
	SetDeadline(t time.Time) error
	// Close releases the conn; idempotent.
	Close() error
	// ReleaseReader returns the conn's pooled FrameReader; it is called
	// once, when no ReadFrame is in flight or follows and no payload a
	// ReadFrame returned is still in use.
	ReleaseReader()
}

// Counters are a fabric's cumulative traffic counters, updated by the
// engine on both the client and server halves. The fabric owns one set and
// snapshots it for transport.Stats.
type Counters struct {
	Calls           atomic.Uint64
	RoundTrips      atomic.Uint64
	BytesSent       atomic.Uint64
	BytesReceived   atomic.Uint64
	AcksElided      atomic.Uint64
	FramesCoalesced atomic.Uint64
}

// Snapshot returns the counters as a transport.Stats value.
func (c *Counters) Snapshot() transport.Stats {
	return transport.Stats{
		Calls:           c.Calls.Load(),
		RoundTrips:      c.RoundTrips.Load(),
		BytesSent:       c.BytesSent.Load(),
		BytesReceived:   c.BytesReceived.Load(),
		AcksElided:      c.AcksElided.Load(),
		FramesCoalesced: c.FramesCoalesced.Load(),
	}
}

// FrameReader is the read half of every Conn, which embeds it for
// ReadFrame and ReleaseReader: a 32 KiB bufio.Reader over the connection
// plus the scratch frames are read into. Every participation opens a fresh
// session, so readers come from a pool when a conn opens and go back to it
// when the conn is done, scratch included: a client's scratch grows to the
// size of a model download once, not once per session.
type FrameReader struct {
	br      *bufio.Reader
	scratch []byte
}

var frameReaders sync.Pool

// NewFrameReader returns a pooled reader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	fr, _ := frameReaders.Get().(*FrameReader)
	if fr == nil {
		return &FrameReader{br: bufio.NewReaderSize(r, 32<<10)}
	}
	fr.br.Reset(r)
	return fr
}

// ReadFrame implements Conn.ReadFrame.
func (fr *FrameReader) ReadFrame(max int) (byte, []byte, error) {
	flags, payload, scratch, err := wire.ReadStreamFrameFrom(fr.br, fr.scratch, max)
	fr.scratch = scratch
	return flags, payload, err
}

// ReleaseReader implements Conn.ReleaseReader: the reader goes back to the
// pool, so its conn calls it once and reads nothing after.
func (fr *FrameReader) ReleaseReader() {
	fr.br.Reset(nil)
	frameReaders.Put(fr)
}

// NetConn adapts a net.Conn to the Conn interface: pooled frame reads,
// writev via net.Buffers, native deadlines. Both halves of the TCP fabric
// use it (client sessions and accepted conns).
type NetConn struct {
	*FrameReader
	c net.Conn
}

// NewNetConn wraps c with a pooled FrameReader.
func NewNetConn(c net.Conn) *NetConn {
	return &NetConn{FrameReader: NewFrameReader(c), c: c}
}

// WriteFrames implements Conn; on a *net.TCPConn the whole batch goes out
// as one writev.
func (n *NetConn) WriteFrames(bufs net.Buffers) (int64, error) {
	return bufs.WriteTo(n.c)
}

// SetDeadline implements Conn.
func (n *NetConn) SetDeadline(t time.Time) error { return n.c.SetDeadline(t) }

// Close implements Conn.
func (n *NetConn) Close() error { return n.c.Close() }

// framePool recycles the buffers queued no-ack request frames are encoded
// into (wrap headers recycled so a release doesn't heap-allocate a slice
// header).
type frameWrap struct{ b []byte }

var (
	framePool  sync.Pool
	frameWraps sync.Pool
)

// GetFrame returns a pooled byte buffer with zero length.
func GetFrame() []byte {
	if w, _ := framePool.Get().(*frameWrap); w != nil {
		b := w.b[:0]
		w.b = nil
		frameWraps.Put(w)
		return b
	}
	return make([]byte, 0, 4096)
}

// PutFrame returns a buffer obtained from GetFrame (or grown from one).
func PutFrame(b []byte) {
	w, _ := frameWraps.Get().(*frameWrap)
	if w == nil {
		w = new(frameWrap)
	}
	w.b = b
	framePool.Put(w)
}
