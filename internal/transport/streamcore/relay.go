package streamcore

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// upstream is the client half a node uses toward another node: one session
// held for the duration of an exchange, or of an elided train. Fabric.Call
// holds one for a single exchange; the serving loop holds one per inbound
// session to execute its handler's transport.Forward directives, pinned
// from a train's first no-ack frame to the acknowledged frame that ends it.
type upstream struct {
	f    *Fabric
	from string // the calling node: the relaying node on a serving loop

	s     *Session
	key   string // pool key of s
	fresh bool   // s was dialed for this exchange, not taken from the pool
	// unanswered counts the no-ack frames sent on s since its last
	// acknowledged exchange; while it is nonzero, s may owe a held failure
	// to whoever calls on it next.
	unanswered int

	hdr  []byte   // stream-frame header (or failure frame) scratch for replies
	bufs [][]byte // net.Buffers scratch (WriteTo consumes its copy)
}

// pinAt points u at node on addr: the session it holds when that one leads
// there and still works, else a pooled one, else a fresh dial.
func (u *upstream) pinAt(addr, node string) error {
	key := sessionKey(addr, node)
	if u.s != nil && u.key == key && !u.s.Broken() {
		return nil
	}
	u.unpin()
	u.key, u.fresh = key, false
	if u.s = u.f.pool.Take(key); u.s != nil {
		return nil
	}
	s, err := u.f.dialSession(addr, node)
	if err != nil {
		return fmt.Errorf("%w: %s unreachable: %v", transport.ErrCrashed, node, err)
	}
	u.s, u.fresh = s, true
	return nil
}

// unpin lets go of the held session: back to the pool when nothing sent on
// it is still unanswered, torn down otherwise, so no later caller receives
// an earlier train's held failure as its own answer.
func (u *upstream) unpin() {
	if u.s == nil {
		return
	}
	if u.unanswered > 0 {
		u.f.pool.Discard(u.s)
	} else {
		u.f.pool.Release(u.key, u.s)
	}
	u.s, u.unanswered = nil, 0
}

// roundTripAt runs one acknowledged exchange with node on addr and returns
// the response payload undecoded (valid until u unpins). A pooled session
// that turns out stale before any byte of this exchange went out is
// discarded and the exchange retried on a fresh connection; once bytes may
// have reached the peer it is never resent (at most once).
func (u *upstream) roundTripAt(addr, node, method string, payload any) ([]byte, error) {
	for {
		if err := u.pinAt(addr, node); err != nil {
			return nil, err
		}
		stale := !u.fresh && u.unanswered == 0
		raw, err, wrote := u.s.exchange(u.from, method, payload)
		if err == nil {
			u.unanswered = 0
			return raw, nil
		}
		broken := u.s.Broken()
		u.unpin()
		if !broken || !stale || wrote {
			return nil, err
		}
	}
}

// send relays a no-ack frame: queued on the session pinned toward the
// target, where it coalesces with the rest of the train. A failure while
// nothing else is outstanding upstream is retried once at the re-resolved
// target; any other failure drops the pinned session.
func (u *upstream) send(fwd transport.Forward) error {
	err := u.queue(fwd.To, fwd)
	if err != nil && u.unanswered == 0 && fwd.Reresolve != nil {
		var to string
		if to, err = fwd.Reresolve(); err == nil {
			err = u.queue(to, fwd)
		}
	}
	if err != nil {
		u.unpin()
	}
	if fwd.Done != nil {
		fwd.Done(err)
	}
	return err
}

// queue runs the relaying node's fault checks toward to — per frame, as
// on every call — and queues the frame on the session pinned there.
func (u *upstream) queue(to string, fwd transport.Forward) error {
	addr, err := u.f.checkCall(u.from, to, fwd.Method)
	if err == nil {
		err = u.pinAt(addr, to)
	}
	if err == nil {
		err = u.s.SendNoAck(u.from, fwd.Method, fwd.Payload)
	}
	if err != nil {
		return err
	}
	u.unanswered++
	return nil
}

// call relays an acknowledged frame and returns the target's response
// payload undecoded. A frame that ends a train rides the train's session,
// so a failure the target held from an earlier chunk is this frame's
// answer. A frame with nothing outstanding before it that fails — no
// answer, or an answer carrying an error — is retried once at the
// re-resolved target.
// transport.Forward.Done sees the outcome before the caller writes it on.
func (u *upstream) call(fwd transport.Forward) (raw []byte, err error) {
	alone := u.unanswered == 0
	raw, err = u.roundTrip(fwd.To, fwd)
	failure := err
	if failure == nil {
		failure = responseError(raw)
	}
	if failure != nil && alone && fwd.Reresolve != nil {
		var to string
		if to, err = fwd.Reresolve(); err == nil {
			raw, err = u.roundTrip(to, fwd)
		}
		if failure = err; failure == nil {
			failure = responseError(raw)
		}
	}
	if fwd.Done != nil {
		fwd.Done(failure)
	}
	return raw, err
}

// roundTrip is roundTripAt toward to after the same per-frame fault checks.
func (u *upstream) roundTrip(to string, fwd transport.Forward) ([]byte, error) {
	addr, err := u.f.checkCall(u.from, to, fwd.Method)
	if err != nil {
		return nil, err
	}
	return u.roundTripAt(addr, to, fwd.Method, fwd.Payload)
}

// relay executes one forwarded inbound frame. A no-ack frame is sent on;
// its failure comes back as the encoded response the serving loop holds for
// the session's next acknowledged frame. An acknowledged frame is answered
// here: with the target's response frame exactly as it arrived, or with
// the transport failure that kept it from arriving. An error means the
// inbound connection broke.
func (u *upstream) relay(conn Conn, fwd transport.Forward, noAck bool, prefix string) (held []byte, err error) {
	if noAck {
		if ferr := u.send(fwd); ferr != nil {
			_, held, err = failureFrame(nil, ferr, prefix)
			return held, err
		}
		return nil, nil
	}
	defer u.unpin()
	raw, ferr := u.call(fwd)
	if ferr != nil {
		var frame []byte
		if u.hdr, frame, err = failureFrame(u.hdr[:0], ferr, prefix); err != nil {
			return nil, err
		}
		_, err = conn.WriteFrames(net.Buffers{frame})
		return nil, err
	}
	u.hdr = wire.AppendStreamHeader(u.hdr[:0], 0, len(raw))
	u.bufs = append(u.bufs[:0], u.hdr, raw)
	_, err = conn.WriteFrames(net.Buffers(u.bufs))
	return nil, err
}

// failureFrame encodes err at the end of dst as the response frame a failed
// call gets, returning the grown buffer and the frame.
func failureFrame(dst []byte, err error, prefix string) (buf, frame []byte, ferr error) {
	return appendResponseFrame(dst, &wire.Response{Kind: transport.ErrorToKind(err), Err: err.Error()}, prefix)
}

// responseError reads the error a response frame carries (nil for a good
// answer) from its head alone.
func responseError(raw []byte) error {
	msg, kind, err := wire.Binary{}.ResponseStatus(raw)
	switch {
	case err != nil:
		return err
	case kind != "":
		return transport.KindToError(kind, msg)
	case msg != "":
		return errors.New(msg)
	}
	return nil
}
