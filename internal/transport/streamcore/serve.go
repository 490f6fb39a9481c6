package streamcore

import (
	"net"

	"repro/internal/compress"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// ServeConfig parameterizes the server half of the engine for the fabric
// that owns the connection.
type ServeConfig struct {
	// MaxFrame bounds one request payload, raw or inflated.
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
// answered in order by response frames, compressed responses mirroring the
// request's deflate choice, and buffer leases released in order (response
// frame fully encoded, then response leases, then request leases).
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
// signal) or the connection breaks; the caller owns conn cleanup.
func Serve(conn Conn, cfg ServeConfig) {
	var out []byte
	var held []byte // encoded response to the first failed no-ack call
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
		if flags&wire.StreamFlagDeflate != 0 {
			if payload, err = compress.InflateBytes(payload, int64(cfg.MaxFrame)); err != nil {
				return
			}
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
			held, err = cfg.relay.relay(conn, fwd, flags, cfg.Prefix)
			releaseLeases(resp, req)
			if err != nil {
				return
			}
			continue
		}
		if noAck && suppressible(resp) {
			releaseLeases(resp, req)
			cfg.Counters.AcksElided.Add(1)
			continue
		}
		out, err = appendResponseFrame(out[:0], resp, flags, cfg.Prefix)
		// The response frame is fully encoded: pooled response vectors (a
		// download's model snapshot) and the request's leased decode
		// vectors go back to their pools.
		releaseLeases(resp, req)
		if err != nil {
			return
		}
		if noAck {
			held = append([]byte(nil), out...)
			continue
		}
		if _, err := conn.WriteFrames(net.Buffers{out}); err != nil {
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

// releaseLeases returns pooled buffers once a response is encoded or
// suppressed: response leases first, then the request's.
func releaseLeases(resp *wire.Response, req *wire.Request) {
	if lease, ok := resp.Payload.(wire.ResponseBufferLease); ok {
		lease.ReleaseResponseBuffers()
	}
	if lease, ok := req.Payload.(wire.BufferLease); ok {
		lease.ReleaseBinaryBuffers()
	}
}

// appendResponseFrame encodes one response as a complete stream frame into
// dst: wire.Binary body in a pooled buffer, the request's deflate choice
// mirrored back.
func appendResponseFrame(dst []byte, resp *wire.Response, reqFlags byte, prefix string) ([]byte, error) {
	body, err := wire.Binary{}.AppendResponse(GetFrame(), resp)
	if err != nil {
		// Encoding an already-handled response failed (unregistered return
		// type): surface it as an application error instead of silence.
		body, err = wire.Binary{}.AppendResponse(GetFrame(), &wire.Response{Err: prefix + ": encoding response: " + err.Error()})
		if err != nil {
			return dst, err
		}
	}
	out, respFlags := body, byte(0)
	if reqFlags&wire.StreamFlagDeflate != 0 && len(body) >= DeflateMin {
		if packed, derr := compress.DeflateBytes(body); derr == nil && len(packed) < len(body) {
			out, respFlags = packed, wire.StreamFlagDeflate
		}
	}
	dst = wire.AppendStreamFrame(dst, respFlags, out)
	PutFrame(body)
	return dst, nil
}
