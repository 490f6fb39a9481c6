package streamcore

// Tests for the session engine on an in-memory Conn (net.Pipe under
// NetConn, so deadlines are real): the Do round trip and its at-most-once
// `wrote` report, the no-ack train with its held failure, the traffic
// counters, the per-call deadline, the fail-loud rule for frames this build
// cannot decode, and the idle-session pool.

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// ack is a response that opts its acknowledgement out of the wire when OK,
// like server.UploadResponse does. It crosses under a test-only ID.
type ack struct {
	OK     bool
	Reason string
}

const ackID = 240

func (a *ack) fields(f *wire.Fields) {
	f.Bool(&a.OK)
	f.String(&a.Reason)
}

func (a ack) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, ackID)
	a.fields(&f)
	return f.Appended()
}

func (a ack) AckElidable() bool { return a.OK }

func init() {
	wire.Register(ackID, "papaya/test/streamcore.ack", func(b []byte) (any, error) {
		var a ack
		f := wire.DecodeFields(b)
		a.fields(&f)
		return a, f.Done()
	})
}

// pipeSession returns a client Session whose peer is a Serve loop running
// invoke, both over one net.Pipe; served is closed when the loop exits.
func pipeSession(t *testing.T, cfg Config, invoke func(*wire.Request) *wire.Response) (s *Session, counters *Counters, served chan struct{}) {
	t.Helper()
	c1, c2 := net.Pipe()
	counters = &Counters{}
	served = make(chan struct{})
	go func() {
		defer close(served)
		defer c2.Close()
		Serve(NewNetConn(c2), ServeConfig{MaxFrame: 1 << 20, Prefix: "test", Counters: counters, Invoke: invoke})
	}()
	cfg.Node, cfg.Prefix, cfg.MaxFrame, cfg.Counters = "node", "test", 1<<20, counters
	s = NewSession(NewNetConn(c1), cfg)
	t.Cleanup(func() {
		s.Teardown()
		<-served
	})
	return s, counters, served
}

// recorder is an Invoke that records the methods it dispatched.
type recorder struct {
	mu      sync.Mutex
	methods []string
}

func (r *recorder) invoke(req *wire.Request) *wire.Response {
	r.mu.Lock()
	r.methods = append(r.methods, req.Method)
	r.mu.Unlock()
	switch req.Method {
	case "bad":
		return &wire.Response{Payload: ack{Reason: "nope"}}
	case "crash":
		return &wire.Response{Kind: transport.KindCrashed, Err: "node"}
	case "echo":
		return &wire.Response{Payload: req.From + ":" + req.Payload.(string)}
	}
	return &wire.Response{Payload: ack{OK: true}}
}

func (r *recorder) seen() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.methods...)
}

func TestDoRoundTrip(t *testing.T) {
	rec := &recorder{}
	s, counters, _ := pipeSession(t, Config{}, rec.invoke)
	big := string(make([]byte, 1024))
	out, err, wrote := s.Do("caller", "echo", big)
	if err != nil || !wrote || out != "caller:"+big {
		t.Fatalf("echo mangled or failed: %v, wrote=%v", err, wrote)
	}
	// A wire-kind error rebuilds the sentinel over a healthy session.
	if _, err, wrote := s.Do("caller", "crash", nil); !errors.Is(err, transport.ErrCrashed) || !wrote || s.Broken() {
		t.Fatalf("kind error = %v, wrote=%v, broken=%v", err, wrote, s.Broken())
	}
	st := counters.Snapshot()
	if st.Calls != 2 || st.BytesSent <= uint64(len(big)) || st.BytesReceived <= uint64(len(big)) {
		t.Fatalf("counters after two calls: %+v", st)
	}
}

// failConn fails every write after accepting `accept` bytes of it, and
// every read.
type failConn struct{ accept int64 }

func (c failConn) ReadFrame(int) (byte, []byte, error)    { return 0, nil, io.ErrUnexpectedEOF }
func (c failConn) WriteFrames(net.Buffers) (int64, error) { return c.accept, io.ErrClosedPipe }
func (failConn) SetDeadline(time.Time) error              { return nil }
func (failConn) Close() error                             { return nil }
func (failConn) ReleaseReader()                           {}

func newFailSession(accept int64, counters *Counters) *Session {
	return NewSession(failConn{accept}, Config{Node: "node", Prefix: "test", MaxFrame: 1 << 20, Counters: counters})
}

// TestDoReportsWrote is the at-most-once guard Fabric.Call's retry rests
// on: wrote is false exactly when no request byte can have reached the
// peer.
func TestDoReportsWrote(t *testing.T) {
	counters := &Counters{}

	s := newFailSession(0, counters)
	if _, err, wrote := s.Do("c", "m", nil); !errors.Is(err, transport.ErrCrashed) || wrote || !s.Broken() {
		t.Fatalf("write failed at byte 0: err=%v wrote=%v broken=%v", err, wrote, s.Broken())
	}
	if _, err, wrote := s.Do("c", "m", nil); !errors.Is(err, transport.ErrCrashed) || wrote {
		t.Fatalf("call on a broken session: err=%v wrote=%v", err, wrote)
	}

	s = newFailSession(3, counters)
	if _, err, wrote := s.Do("c", "m", nil); !errors.Is(err, transport.ErrCrashed) || !wrote {
		t.Fatalf("write failed after 3 bytes: err=%v wrote=%v", err, wrote)
	}

	// An unregistered payload never touches the conn and leaves the session
	// usable: a caller bug, not a transport failure.
	s = newFailSession(0, counters)
	type notRegistered struct{ X int }
	if _, err, wrote := s.Do("c", "m", notRegistered{}); err == nil || errors.Is(err, transport.ErrCrashed) || wrote || s.Broken() {
		t.Fatalf("unregistered payload: err=%v wrote=%v broken=%v", err, wrote, s.Broken())
	}

	s = newFailSession(0, counters)
	s.Teardown()
	if _, err, wrote := s.Do("c", "m", nil); !errors.Is(err, transport.ErrCrashed) || wrote {
		t.Fatalf("call on a closed session: err=%v wrote=%v", err, wrote)
	}
	if err := s.SendNoAck("c", "m", nil); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("no-ack send on a closed session: %v", err)
	}
}

// TestNoAckTrainHoldsFirstFailure: elidable acks never cross; the first
// response that must travel is held, later no-ack frames are drained
// without decode or dispatch, and the next acknowledged call is answered
// with the held response instead of being invoked.
func TestNoAckTrainHoldsFirstFailure(t *testing.T) {
	rec := &recorder{}
	s, counters, _ := pipeSession(t, Config{}, rec.invoke)

	for _, m := range []string{"ok", "ok"} {
		if err := s.SendNoAck("c", m, "x"); err != nil {
			t.Fatal(err)
		}
	}
	out, err, _ := s.Do("c", "done", "x")
	if err != nil || !out.(ack).OK {
		t.Fatalf("clean train's final call = %v, %v", out, err)
	}
	st := counters.Snapshot()
	if st.AcksElided != 4 { // two sent no-ack + two suppressed while serving
		t.Fatalf("AcksElided = %d after a clean two-frame train, want 4", st.AcksElided)
	}
	if st.FramesCoalesced != 3 {
		t.Fatalf("FramesCoalesced = %d, want the 3 frames of one batched write", st.FramesCoalesced)
	}
	if st.Calls != 3 {
		t.Fatalf("Calls = %d, want 3", st.Calls)
	}

	for _, m := range []string{"ok", "bad", "after"} {
		if err := s.SendNoAck("c", m, "x"); err != nil {
			t.Fatal(err)
		}
	}
	out, err, _ = s.Do("c", "final", "x")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(ack); got.OK || got.Reason != "nope" {
		t.Fatalf("held response = %+v, want the bad frame's", got)
	}
	if got := rec.seen(); len(got) != 5 || got[3] != "ok" || got[4] != "bad" {
		t.Fatalf("dispatched %v; after and final must not be invoked", got)
	}
	// The session is healthy again: one response per acknowledged frame.
	if out, err, _ := s.Do("c", "echo", "again"); err != nil || out != "c:again" {
		t.Fatalf("call after the held failure = %v, %v", out, err)
	}
}

// TestNoAckFlushThreshold: a long train flushes on its own at the byte
// threshold instead of buffering a whole model client-side.
func TestNoAckFlushThreshold(t *testing.T) {
	rec := &recorder{}
	s, _, _ := pipeSession(t, Config{}, rec.invoke)
	chunk := string(make([]byte, 16<<10))
	for i := 0; i < 4; i++ { // 4 x 16 KiB reaches coalesceFlushBytes
		if err := s.SendNoAck("c", "ok", chunk); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(rec.seen()) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("server saw %d frames without any acknowledged call", len(rec.seen()))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCallTimeoutBreaksSession: the per-call deadline is armed through
// Conn.SetDeadline; a peer that never answers fails the call with
// ErrCrashed and marks the session broken, so a pool will not reuse it.
func TestCallTimeoutBreaksSession(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	go func() { _, _ = io.Copy(io.Discard, c2) }() // reads everything, answers nothing
	s := NewSession(NewNetConn(c1), Config{
		Node: "mute", Prefix: "test", MaxFrame: 1 << 20, Counters: &Counters{},
		CallTimeout: 50 * time.Millisecond,
	})
	defer s.Teardown()
	start := time.Now()
	_, err, wrote := s.Do("c", "m", nil)
	if !errors.Is(err, transport.ErrCrashed) || !wrote || !s.Broken() {
		t.Fatalf("mute peer: err=%v wrote=%v broken=%v", err, wrote, s.Broken())
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("call took %v under a 50ms CallTimeout", d)
	}
}

// TestUndecodableFrameKillsSession is wire versioning rule 1 at the
// serving loop: a frame with an unknown magic, or from a build that speaks
// Version+1, ends the session — nothing is guessed or negotiated — and the
// caller's pending call fails with ErrCrashed.
func TestUndecodableFrameKillsSession(t *testing.T) {
	good, err := wire.Binary{}.AppendRequest(nil, &wire.Request{From: "c", Method: "echo", Payload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	future := append([]byte(nil), good...)
	future[2] = wire.Version + 1
	gobEra := append([]byte("PW"), good[2:]...)
	for name, frame := range map[string][]byte{"version+1": future, "unknown magic": gobEra} {
		rec := &recorder{}
		s, _, served := pipeSession(t, Config{}, rec.invoke)
		if out, err, _ := s.Do("c", "echo", "x"); err != nil || out != "c:x" {
			t.Fatalf("%s: healthy call = %v, %v", name, out, err)
		}
		if _, err := s.conn.WriteFrames(net.Buffers{wire.AppendStreamFrame(nil, 0, frame)}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: serve loop kept the session alive", name)
		}
		if _, err, _ := s.Do("c", "echo", "x"); !errors.Is(err, transport.ErrCrashed) || !s.Broken() {
			t.Fatalf("%s: call on the killed session = %v (broken=%v), want ErrCrashed", name, err, s.Broken())
		}
		if got := rec.seen(); len(got) != 1 {
			t.Fatalf("%s: dispatched %v; the undecodable frame must not reach a handler", name, got)
		}
	}
}

func TestPool(t *testing.T) {
	counters := &Counters{}
	newSession := func() *Session {
		c1, c2 := net.Pipe()
		t.Cleanup(func() { c2.Close() })
		return NewSession(NewNetConn(c1), Config{Node: "n", Prefix: "test", MaxFrame: 1 << 10, Counters: counters})
	}
	p := NewPool(2)
	if p.Take("k") != nil {
		t.Fatal("empty pool handed out a session")
	}
	a, b, c := newSession(), newSession(), newSession()
	for _, s := range []*Session{a, b, c} {
		if !p.Track(s) {
			t.Fatal("open pool refused to track")
		}
	}
	p.Release("k", a)
	p.Release("k", b)
	p.Release("k", c) // over the idle cap: discarded
	if !c.Closed() || a.Closed() || b.Closed() {
		t.Fatalf("idle cap: closed a=%v b=%v c=%v, want only c", a.Closed(), b.Closed(), c.Closed())
	}
	if p.Take("other") != nil {
		t.Fatal("pool handed a session out under the wrong key")
	}
	if got := p.Take("k"); got != b {
		t.Fatal("Take is not LIFO")
	}
	b.broken.Store(true)
	p.Release("k", b) // broken: discarded, not parked
	if !b.Closed() {
		t.Fatal("broken session was parked instead of torn down")
	}
	if got := p.Take("k"); got != a {
		t.Fatal("healthy idle session lost")
	}
	p.Discard(a)
	if !a.Closed() || p.Take("k") != nil {
		t.Fatal("Discard left the session alive or parked")
	}

	// Close tears down idle and checked-out sessions alike, and a session
	// that loses the race against it must be refused, not leaked.
	idle, out := newSession(), newSession()
	p.Track(idle)
	p.Track(out)
	p.Release("k", idle)
	p.Close()
	if !idle.Closed() || !out.Closed() {
		t.Fatalf("Close left sessions alive: idle=%v checked-out=%v", idle.Closed(), out.Closed())
	}
	late := newSession()
	if p.Track(late) {
		t.Fatal("closed pool tracked a new session")
	}
	p.Release("k", late)
	if !late.Closed() || p.Take("k") != nil {
		t.Fatal("closed pool parked a session")
	}
}
