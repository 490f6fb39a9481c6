package streamcore

import (
	"net"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// ServeConfig parameterizes the server half of the engine for the fabric
// that owns the connection.
type ServeConfig struct {
	// MaxFrame bounds one request payload.
	MaxFrame int
	// Prefix is the owning fabric's error prefix.
	Prefix string
	// Counters receives the server-side accounting (acks elided).
	Counters *Counters
	// Invoke runs one decoded request through the fabric's fault-check
	// dispatch, so fault parity holds frame by frame.
	Invoke func(req *wire.Request) *wire.Response

	// relay executes the transport.Forward answers Invoke returns, for the
	// node the session addresses. ServeConn sets it; only a fabric's
	// handlers forward.
	relay *upstream
}

// Serve runs one inbound streaming session: pipelined request frames
// answered in order by response frames, and the request's buffer leases
// released once its response frame is encoded.
//
// A handler may answer with a wire.EncodedResponse (a published model
// version): its frame goes out as it is, behind a stream header, in one
// writev — nothing is encoded or copied per request.
//
// Frames carrying wire.StreamFlagNoAck are the ack-elision path: a
// successful response whose payload opts in (transport.AckElidable) is
// suppressed entirely. The first non-suppressible response to a no-ack
// frame is encoded immediately and *held*; subsequent no-ack frames are
// drained without decode or dispatch (their sender's protocol state is
// already failed), and the held frame answers the session's next
// acknowledged call in place of invoking it — one response per
// acknowledged frame, always, so the two ends can never disagree about
// framing.
//
// A frame whose handler answers with a transport.Forward is relayed: a
// no-ack frame rides on, unanswered, over one upstream session pinned to
// this session for the train, and the acknowledged frame that ends the
// train is exchanged on that same session, its response frame written back
// exactly as it arrived. A failed no-ack forward is held like any failed
// no-ack call. The pinned session is torn down, not pooled, if this session
// ends with frames on it unanswered.
//
// Serve returns when the peer closes its end (the session's natural close
// signal) or the connection breaks, returning the conn's reader to its
// pool; the caller owns the rest of conn cleanup.
func Serve(conn Conn, cfg ServeConfig) {
	defer conn.ReleaseReader()
	var out []byte  // response frame scratch
	var held []byte // encoded response to the first failed no-ack call
	var wv [][]byte // net.Buffers scratch (WriteTo consumes a copy)
	if cfg.relay != nil {
		defer cfg.relay.unpin()
	}
	for {
		flags, payload, err := conn.ReadFrame(cfg.MaxFrame)
		if err != nil {
			return // io.EOF: clean close; anything else: dead peer
		}
		noAck := flags&wire.StreamFlagNoAck != 0
		if held != nil {
			if noAck {
				continue // session already failing: drain elided frames
			}
			if _, err := conn.WriteFrames(net.Buffers{held}); err != nil {
				return
			}
			held = nil
			continue
		}
		req, err := wire.Binary{}.DecodeRequest(payload)
		if err != nil {
			// An unknown magic or envelope version (wire versioning rule 1)
			// or a frame that does not parse: the stream itself is
			// unreliable, so kill the session rather than guess at framing.
			return
		}
		resp := cfg.Invoke(req)
		if fwd, ok := resp.Payload.(transport.Forward); ok {
			held, err = cfg.relay.relay(conn, fwd, noAck, cfg.Prefix)
			releaseRequest(req)
			if err != nil {
				return
			}
			continue
		}
		if noAck && suppressible(resp) {
			releaseRequest(req)
			cfg.Counters.AcksElided.Add(1)
			continue
		}
		if enc, ok := resp.Payload.(wire.EncodedResponse); ok {
			body := enc.ResponseFrame()
			out = wire.AppendStreamHeader(out[:0], 0, len(body))
			wv = append(wv[:0], out, body)
		} else {
			var frame []byte
			out, frame, err = appendResponseFrame(out[:0], resp, cfg.Prefix)
			if err != nil {
				releaseRequest(req)
				return
			}
			wv = append(wv[:0], frame)
		}
		// The response frame is encoded: the request's leased decode
		// vectors go back to their pools.
		releaseRequest(req)
		if noAck {
			for _, b := range wv {
				held = append(held, b...)
			}
			continue
		}
		if _, err := conn.WriteFrames(net.Buffers(wv)); err != nil {
			return
		}
	}
}

// suppressible reports whether a response to a no-ack frame may be elided:
// nothing failed and the payload explicitly opted its acknowledgement out
// of the wire.
func suppressible(resp *wire.Response) bool {
	if resp.Kind != "" || resp.Err != "" {
		return false
	}
	el, ok := resp.Payload.(transport.AckElidable)
	return ok && el.AckElidable()
}

// releaseRequest returns a request's leased decode vectors to their pools
// once its response is encoded or suppressed.
func releaseRequest(req *wire.Request) {
	if lease, ok := req.Payload.(wire.BufferLease); ok {
		lease.ReleaseBinaryBuffers()
	}
}

// appendResponseFrame encodes one response as a complete stream frame at
// the end of dst, in place like Session.encodeFrame. It returns the grown
// buffer and the frame within it.
func appendResponseFrame(dst []byte, resp *wire.Response, prefix string) (buf, frame []byte, err error) {
	start := len(dst)
	buf, err = wire.Binary{}.AppendResponse(wire.BeginStreamFrame(dst), resp)
	if err != nil {
		// Encoding an already-handled response failed (unregistered return
		// type): surface it as an application error instead of silence.
		buf, err = wire.Binary{}.AppendResponse(wire.BeginStreamFrame(dst), &wire.Response{Err: prefix + ": encoding response: " + err.Error()})
		if err != nil {
			return dst, nil, err
		}
	}
	return buf, wire.EndStreamFrame(buf, start, 0), nil
}
