package client

// The participation's session is the only path a RunOnce takes, so its
// lifecycle is pinned here on a counting stub: exactly one session per
// attempt, closed on every exit, and a session that breaks mid-upload hands
// the whole chunk train to per-call failover.

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
)

// countingFabric is a transport.StreamFabric over the inline fabric. Its
// sessions dispatch into the same handlers, offer ack elision, and count
// opens and closes; perCall counts what bypassed a session. With
// breakAtNoAck = n > 0, a session's n-th SendNoAck fails and the session
// stays broken.
type countingFabric struct {
	*inlineFabric
	opened, closed, perCall int
	breakAtNoAck            int
}

func (f *countingFabric) Call(from, to, method string, payload any) (any, error) {
	f.perCall++
	return f.inlineFabric.Call(from, to, method, payload)
}

func (f *countingFabric) OpenSession(from, to string) (transport.Session, error) {
	if f.handlers[to] == nil {
		return nil, transport.ErrCrashed
	}
	f.opened++
	return &countingSession{f: f, to: to}, nil
}

type countingSession struct {
	f              *countingFabric
	to             string
	noAcks         int
	broken, closed bool
}

func (s *countingSession) Call(method string, payload any) (any, error) {
	if s.broken || s.closed {
		return nil, transport.ErrCrashed
	}
	return s.f.handlers[s.to](method, payload)
}

func (s *countingSession) ElidesAcks() bool { return !s.closed }

func (s *countingSession) SendNoAck(method string, payload any) error {
	if s.noAcks++; s.noAcks == s.f.breakAtNoAck {
		s.broken = true
	}
	_, err := s.Call(method, payload)
	return err
}

func (s *countingSession) Close() error {
	if !s.closed {
		s.closed = true
		s.f.closed++
	}
	return nil
}

func newCountingRuntime(h transport.Handler) (*Runtime, *countingFabric) {
	net := &countingFabric{inlineFabric: newInlineFabric()}
	net.Register("sel", h)
	return newTestRuntime([]string{"sel"}, net), net
}

func TestRunOnceOpensAndClosesOneSession(t *testing.T) {
	abortReport := func(method string, payload any) (any, error) {
		if req, ok := payload.(server.RouteRequest); ok && req.Method == "report" {
			return server.ReportResponse{OK: false, Reason: "round closed"}, nil
		}
		return acceptAll(method, payload)
	}
	withFail := func(method string, payload any) (any, error) {
		if req, ok := payload.(server.RouteRequest); ok && req.Method == "fail-session" {
			return server.UploadResponse{OK: true}, nil
		}
		return acceptAll(method, payload)
	}
	type tc struct {
		name    string
		handler transport.Handler
		stage   DropStage
		vanish  bool
		want    Outcome
	}
	cases := []tc{
		{name: "rejected", handler: rejectCheckin, want: Rejected},
		{name: "report-abort", handler: abortReport, want: Aborted},
		{name: "completed", handler: acceptAll, want: Completed},
	}
	for _, stage := range []DropStage{DropAfterDownload, DropAfterTrain, DropDuringUpload} {
		for _, vanish := range []bool{false, true} {
			name := "drop-" + string(stage)
			if vanish {
				name += "-vanish"
			}
			cases = append(cases, tc{name: name, handler: withFail, stage: stage, vanish: vanish, want: Dropped})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, net := newCountingRuntime(c.handler)
			if c.stage != DropNone {
				r.Dropout = func() (DropStage, bool) { return c.stage, c.vanish }
			}
			res, err := r.RunOnce(time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != c.want {
				t.Fatalf("outcome = %s (%s), want %s", res.Outcome, res.Reason, c.want)
			}
			if net.opened != 1 || net.closed != 1 || net.perCall != 0 {
				t.Fatalf("sessions opened %d, closed %d, per-call RPCs %d; want 1, 1, 0",
					net.opened, net.closed, net.perCall)
			}
		})
	}
}

// TestBrokenSessionRestartsTrainAcked: the 56-param delta goes up as four
// 16-float chunks. The session delivers the first unacknowledged and dies on
// the second, so the client must resend from offset 0 with every chunk
// acknowledged over per-call failover, finish exactly once, and meter the
// bytes of one train, not one and a quarter.
func TestBrokenSessionRestartsTrainAcked(t *testing.T) {
	var offsets []int
	done := 0
	r, net := newCountingRuntime(func(method string, payload any) (any, error) {
		if req, ok := payload.(server.RouteRequest); ok && req.Method == "upload-chunk" {
			chunk := req.Payload.(server.UploadChunk)
			offsets = append(offsets, chunk.Offset)
			if chunk.Done {
				done++
			}
		}
		return acceptAll(method, payload)
	})
	net.breakAtNoAck = 2
	r.Compress = []string{"none"}

	res, err := r.RunOnce(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome = %s (%s)", res.Outcome, res.Reason)
	}
	if want := []int{0, 0, 16, 32, 48}; !slices.Equal(offsets, want) {
		t.Fatalf("chunk offsets seen by the selector = %v, want %v", offsets, want)
	}
	if done != 1 {
		t.Fatalf("final chunk delivered %d times, want once", done)
	}
	if net.opened != 1 || net.closed != 1 || net.perCall != 4 {
		t.Fatalf("sessions opened %d, closed %d, per-call RPCs %d; want 1, 1, 4",
			net.opened, net.closed, net.perCall)
	}
	if res.UploadRawBytes != 4*56 || res.UploadWireBytes != 4*56 {
		t.Fatalf("metered raw %d / wire %d bytes, want %d for one train",
			res.UploadRawBytes, res.UploadWireBytes, 4*56)
	}

	// With no selector left to fail over to, the same break is an error,
	// and the session is still closed.
	r, net = newCountingRuntime(acceptAll)
	net.breakAtNoAck = 2
	sel := net.handlers["sel"]
	net.Register("sel", func(method string, payload any) (any, error) {
		if net.closed > 0 {
			return nil, transport.ErrCrashed
		}
		return sel(method, payload)
	})
	if _, err := r.RunOnce(time.Now()); !errors.Is(err, ErrNoSelector) {
		t.Fatalf("err = %v, want ErrNoSelector", err)
	}
	if net.opened != 1 || net.closed != 1 {
		t.Fatalf("sessions opened %d, closed %d; want 1, 1", net.opened, net.closed)
	}
}
