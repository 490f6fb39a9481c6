package httptransport

// The HTTP carrier of a streamcore session. A per-call POST pays the full
// net/http request lifecycle — routing, header parsing, connection
// bookkeeping — for every chunk of every upload. Here a whole session rides
// ONE long-lived POST to /papaya/v2/stream/{node}: the request body is a
// pipelined sequence of length-prefixed wire frames
// (wire.AppendStreamFrame), the response body is the matching sequence of
// response frames, and the HTTP machinery is paid once per session instead
// of once per call. Full-duplex HTTP/1.1 (http.ResponseController
// .EnableFullDuplex) lets the handler answer frame by frame while the
// client keeps writing. This file supplies the two adapters — the client's
// long-lived POST pipe and the server's full-duplex response — and nothing
// else: the session machinery is streamcore's.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/transport/streamcore"
)

// streamContentType marks a stream body: a frame sequence in both
// directions.
const streamContentType = "application/x-papaya-stream"

// --- server side ---

// httpConn adapts one inbound stream POST (request body in, response
// writer out) to the engine's Conn. Deadlines map onto the
// http.ResponseController's read/write deadlines.
type httpConn struct {
	*streamcore.FrameReader
	w    http.ResponseWriter
	rc   *http.ResponseController
	body io.Closer
}

func (h *httpConn) WriteFrames(bufs net.Buffers) (int64, error) {
	n, err := bufs.WriteTo(h.w)
	if err != nil {
		return n, err
	}
	return n, h.rc.Flush()
}

func (h *httpConn) SetDeadline(t time.Time) error {
	if err := h.rc.SetReadDeadline(t); err != nil {
		return err
	}
	return h.rc.SetWriteDeadline(t)
}

func (h *httpConn) Close() error { return h.body.Close() }

// handleStream accepts one streaming session — a pipelined sequence of
// length-prefixed request frames answered in order by response frames over
// a single POST — and hands it to the shared fabric, which serves it until
// the client closes its end (the session's natural close signal) or the
// connection breaks.
func (f *Fabric) handleStream(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	// Full duplex: we must answer earlier frames while the client still
	// writes later ones. Best-effort — HTTP/1.1 (our only transport; h2
	// needs TLS) supports it.
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", streamContentType)
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush() // release the client's Do() before the first frame

	f.ServeConn(r.PathValue("node"),
		&httpConn{FrameReader: streamcore.NewFrameReader(r.Body), w: w, rc: rc, body: r.Body})
}

// --- client side ---

// pipeConn adapts the client half of one stream POST — the request-body
// pipe out, the response body in — to the engine's Conn. HTTP bodies have
// no native deadlines, so SetDeadline arms one persistent reusable timer
// that force-closes the conn (the engine clears it after every completed
// exchange; an armed timer firing while the session idles in a pool would
// otherwise destroy it).
type pipeConn struct {
	*streamcore.FrameReader
	pw     *io.PipeWriter
	resp   *http.Response
	cancel context.CancelFunc

	tmu   sync.Mutex
	timer *time.Timer
}

func (p *pipeConn) WriteFrames(bufs net.Buffers) (int64, error) {
	return bufs.WriteTo(p.pw)
}

func (p *pipeConn) SetDeadline(t time.Time) error {
	p.tmu.Lock()
	defer p.tmu.Unlock()
	if t.IsZero() {
		if p.timer != nil {
			p.timer.Stop()
		}
		return nil
	}
	d := time.Until(t)
	if p.timer == nil {
		p.timer = time.AfterFunc(d, p.abort)
		return nil
	}
	p.timer.Stop()
	p.timer.Reset(d)
	return nil
}

// abort force-closes the underlying connection, unblocking any in-flight
// read or pipe write. Closing the body pipe matters as much as the cancel:
// when the peer dies, the transport's write loop is blocked reading this
// pipe, and context cancellation cannot interrupt a body Read — only the
// close can.
func (p *pipeConn) abort() {
	p.pw.CloseWithError(errors.New("httptransport: stream call timed out"))
	p.resp.Body.Close()
	p.cancel()
}

func (p *pipeConn) Close() error {
	p.tmu.Lock()
	if p.timer != nil {
		p.timer.Stop()
	}
	p.tmu.Unlock()
	p.pw.Close() // EOF at the server: the session's natural close signal
	p.resp.Body.Close()
	p.cancel()
	return nil
}

// dial is the streamcore.Dialer: one stream POST toward target for node,
// returned once the response headers are in.
func (f *Fabric) dial(target, node string, timeout time.Duration) (streamcore.Conn, error) {
	pr, pw := io.Pipe()
	// The open phase (dial + response headers) is deadline-bounded like
	// any call — a blackholed peer must fail fast so the caller can fail
	// over — but the context must outlive Do: cancelling it would kill
	// the long-lived stream, so the timer only fires on a slow open and
	// the conn owns the cancel for its teardown.
	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, target+streamPath+url.PathEscape(node), pr)
	if err != nil {
		cancel()
		pw.Close()
		return nil, err
	}
	httpReq.Header.Set("Content-Type", streamContentType)
	openTimer := time.AfterFunc(timeout, func() {
		pw.CloseWithError(errors.New("httptransport: stream open timed out"))
		cancel()
	})
	resp, err := f.client.Do(httpReq)
	openTimer.Stop()
	if err != nil {
		cancel()
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		pw.Close()
		return nil, fmt.Errorf("httptransport: stream to %s: HTTP %d: %s", node, resp.StatusCode, msg)
	}
	return &pipeConn{FrameReader: streamcore.NewFrameReader(resp.Body), pw: pw, resp: resp, cancel: cancel}, nil
}
