package client

import (
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
)

// rejectAtCapacity is a stub selector whose aggregator is always full and
// asks clients to come back after retryAfter.
func rejectAtCapacity(retryAfter time.Duration) transport.Handler {
	return func(method string, payload any) (any, error) {
		return server.CheckinResponse{
			Accepted: false, Reason: "task at max concurrency",
			RetryAfterMs: int(retryAfter / time.Millisecond),
		}, nil
	}
}

// stubFleet builds n test runtimes (client IDs 1..n) on one stub selector.
func stubFleet(n int, sel transport.Handler) []*Runtime {
	net := transport.NewNetwork(1)
	net.Register("sel", sel)
	devs := make([]*Runtime, n)
	for i := range devs {
		devs[i] = newTestRuntime([]string{"sel"}, net)
		devs[i].ClientID = int64(i + 1)
	}
	return devs
}

func sum(ts []Tally) Tally {
	var t Tally
	for i := range ts {
		t.Add(&ts[i])
	}
	return t
}

// TestBackoffJitterDoublingAndHint pins the retry schedule: each wait is
// drawn from [cur/2, 3cur/2), cur doubles up to maxBackoff, a longer
// server hint wins, and a taken session resets the schedule.
func TestBackoffJitterDoublingAndHint(t *testing.T) {
	b := newBackoff(7)
	for i := 0; i < 10; i++ {
		cur := b.cur
		if d := b.next(0); d < cur/2 || d >= cur/2+cur {
			t.Fatalf("step %d: wait %v outside [%v, %v)", i, d, cur/2, cur/2+cur)
		}
		if want := min(2*cur, maxBackoff); b.cur != want {
			t.Fatalf("step %d: schedule %v, want %v", i, b.cur, want)
		}
	}
	if d := b.next(time.Second); d != time.Second {
		t.Fatalf("hint 1s: wait %v", d)
	}
	b.reset()
	if b.cur != minBackoff {
		t.Fatalf("reset left schedule at %v", b.cur)
	}
}

// TestDriverStopsAtTarget: the fleet stops starting attempts once the
// target is met, so it overshoots by at most the sessions in flight.
func TestDriverStopsAtTarget(t *testing.T) {
	d := &Driver{Devices: stubFleet(4, acceptAll), Target: 10}
	total := sum(d.Run())
	if total.Completed < 10 || total.Completed > 13 {
		t.Fatalf("completed %d, want 10..13", total.Completed)
	}
	if d.Completed() != total.Completed || int64(len(total.Latencies)) != total.Completed {
		t.Fatalf("Completed() %d, tally %d, latencies %d disagree",
			d.Completed(), total.Completed, len(total.Latencies))
	}
	if total.UploadRawBytes != 56*4*total.Completed {
		t.Fatalf("raw upload bytes %d for %d uploads of 56 floats", total.UploadRawBytes, total.Completed)
	}
}

// TestDriverPlanBudgetAndObserve runs a planned attempt budget on one
// worker: every (client, attempt) is observed exactly once, in device
// order, an unavailable attempt never reaches the server, the planned
// dropout and pacing apply inside the session, and the per-device
// tallies match the plans.
func TestDriverPlanBudgetAndObserve(t *testing.T) {
	const pace = 20 * time.Millisecond
	plan := func(id int64, attempt int) Plan {
		switch attempt {
		case 1:
			return Plan{}
		case 2:
			return Plan{Available: true, Drop: DropAfterDownload}
		case 3:
			return Plan{Available: true, Delay: pace}
		}
		return Plan{Available: true}
	}
	var seen []Attempt
	d := &Driver{
		Devices:  stubFleet(3, acceptAll),
		Workers:  1,
		Attempts: 4,
		Plan:     plan,
		Observe:  func(a Attempt) { seen = append(seen, a) },
	}
	tallies := d.Run()
	want := []string{"completed", "unavailable", "dropped", "completed"}
	if len(seen) != 3*len(want) {
		t.Fatalf("observed %d attempts, want %d", len(seen), 3*len(want))
	}
	for i, a := range seen {
		if a.ClientID != int64(i/4+1) || a.Index != i%4 {
			t.Fatalf("attempt %d is client %d #%d: one worker must run each client's budget in turn",
				i, a.ClientID, a.Index)
		}
		if got := a.Outcome(); got != want[a.Index] {
			t.Fatalf("client %d attempt %d: outcome %s, want %s", a.ClientID, a.Index, got, want[a.Index])
		}
		if a.Index == 1 && !a.Start.IsZero() {
			t.Fatalf("client %d: unavailable attempt ran", a.ClientID)
		}
	}
	for i, tl := range tallies {
		if tl.Completed != 2 || tl.Unavailable != 1 || tl.Dropped != 1 || tl.Errors != 0 {
			t.Fatalf("device %d tally %+v", i, tl)
		}
		if tl.Latencies[1] < pace {
			t.Fatalf("device %d: paced session took %v, want >= %v", i, tl.Latencies[1], pace)
		}
	}
}

// TestDriverBackoffHonoursRetryAfter: a rejected device never comes back
// sooner than the server asked, and rejections at the aggregator's
// concurrency ceiling are told apart from the selector tier's.
func TestDriverBackoffHonoursRetryAfter(t *testing.T) {
	const hint = 30 * time.Millisecond
	var starts []time.Time
	d := &Driver{
		Devices:  stubFleet(1, rejectAtCapacity(hint)),
		Attempts: 3,
		Observe:  func(a Attempt) { starts = append(starts, a.Start) },
	}
	tl := d.Run()[0]
	if tl.Rejected != 3 || tl.RejectedAtCapacity != 3 {
		t.Fatalf("tally %+v, want 3 rejections at capacity", tl)
	}
	for i := 1; i < len(starts); i++ {
		if gap := starts[i].Sub(starts[i-1]); gap < hint {
			t.Fatalf("retry %d after %v, server asked for %v", i, gap, hint)
		}
	}
}

// TestDriverStopAndDeadlineCutBackoffShort: neither Stop (here called from
// Observe) nor the deadline waits out a long server back-off hint.
func TestDriverStopAndDeadlineCutBackoffShort(t *testing.T) {
	const hint = time.Minute
	d := &Driver{Devices: stubFleet(4, rejectAtCapacity(hint))}
	d.Observe = func(Attempt) { d.Stop() }
	start := time.Now()
	d.Run()
	if took := time.Since(start); took > hint/2 {
		t.Fatalf("Stop took %v", took)
	}

	d = &Driver{Devices: stubFleet(4, rejectAtCapacity(hint)), Deadline: time.Now().Add(50 * time.Millisecond)}
	total := sum(d.Run())
	if took := time.Since(start); took > hint/2 {
		t.Fatalf("deadline run took %v", took)
	}
	if total.Rejected != 4 {
		t.Fatalf("%d rejections, want one per device before the deadline", total.Rejected)
	}
}

// TestDriverCountsTransportErrors: a device that reaches no selector
// tallies one error per attempt and backs off between them.
func TestDriverCountsTransportErrors(t *testing.T) {
	devs := stubFleet(1, acceptAll)
	devs[0].Selectors = []string{"ghost"}
	var outcomes []string
	d := &Driver{Devices: devs, Attempts: 2, Observe: func(a Attempt) { outcomes = append(outcomes, a.Outcome()) }}
	if tl := d.Run()[0]; tl.Errors != 2 || tl.Completed != 0 {
		t.Fatalf("tally %+v, want 2 errors", tl)
	}
	if len(outcomes) != 2 || outcomes[0] != "error" || outcomes[1] != "error" {
		t.Fatalf("outcomes %v", outcomes)
	}
}
