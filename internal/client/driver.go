package client

import (
	mrand "math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Plan is one attempt's pre-drawn schedule: whether the device is
// reachable at all, where (if anywhere) it dies, and how long its
// simulated device compute takes.
type Plan struct {
	// Available reports whether the device's availability window is open
	// this attempt; a closed window skips the attempt entirely.
	Available bool
	// Drop is the stage at which the device dies (DropNone = survives).
	Drop DropStage
	// Vanish makes the scheduled drop silent (no fail-session call).
	Vanish bool
	// Delay is the simulated device compute, slept inside the session
	// between download and training, so a slow device holds its session
	// longer and accumulates real staleness.
	Delay time.Duration
}

// Attempt is one finished participation attempt, as Driver.Observe sees it.
type Attempt struct {
	// ClientID is the device that made the attempt.
	ClientID int64
	// Index is the device's 0-based attempt number.
	Index int
	// Plan is the schedule the attempt ran under.
	Plan Plan
	// Start is when RunOnce was called (zero when the device was
	// unavailable).
	Start time.Time
	// Result is RunOnce's result; nil when the device was unavailable or
	// RunOnce failed.
	Result *Result
	// Err is RunOnce's transport-level error.
	Err error
}

// Outcome names how the attempt ended: a Result outcome, "unavailable",
// or "error".
func (a *Attempt) Outcome() string {
	switch {
	case !a.Plan.Available:
		return "unavailable"
	case a.Err != nil:
		return "error"
	}
	return string(a.Result.Outcome)
}

// Tally counts attempt outcomes, for one device or, merged with Add, for
// a whole fleet.
type Tally struct {
	Completed, Rejected, Aborted, Dropped, Unavailable, Errors int64
	// RejectedAtCapacity counts the rejections an aggregator issued at its
	// concurrency ceiling; the rest came from the selector tier (no task
	// with demand, or no live aggregator owning one).
	RejectedAtCapacity int64
	// UploadRawBytes and UploadWireBytes sum the completed uploads'
	// payload sizes before and after compression.
	UploadRawBytes, UploadWireBytes int64
	// Compress is an upload codec a completed session negotiated ("" when
	// none did).
	Compress string
	// Latencies holds every completed session's check-in-to-ack time.
	Latencies []time.Duration
}

// count records one attempt.
func (t *Tally) count(a *Attempt, took time.Duration) {
	switch a.Outcome() {
	case "unavailable":
		t.Unavailable++
	case "error":
		t.Errors++
	case string(Completed):
		t.Completed++
		t.UploadRawBytes += a.Result.UploadRawBytes
		t.UploadWireBytes += a.Result.UploadWireBytes
		if a.Result.Compress != "" {
			t.Compress = a.Result.Compress
		}
		t.Latencies = append(t.Latencies, took)
	case string(Rejected):
		t.Rejected++
		if strings.Contains(a.Result.Reason, "concurrency") {
			t.RejectedAtCapacity++
		}
	case string(Aborted):
		t.Aborted++
	case string(Dropped):
		t.Dropped++
	}
}

// Add merges o into t.
func (t *Tally) Add(o *Tally) {
	t.Completed += o.Completed
	t.Rejected += o.Rejected
	t.Aborted += o.Aborted
	t.Dropped += o.Dropped
	t.Unavailable += o.Unavailable
	t.Errors += o.Errors
	t.RejectedAtCapacity += o.RejectedAtCapacity
	t.UploadRawBytes += o.UploadRawBytes
	t.UploadWireBytes += o.UploadWireBytes
	if o.Compress != "" {
		t.Compress = o.Compress
	}
	t.Latencies = append(t.Latencies, o.Latencies...)
}

// PercentileMillis is the p-quantile (0..1, nearest rank below) of the
// completed-session latencies in milliseconds; 0 with no completions.
func (t *Tally) PercentileMillis(p float64) float64 {
	if len(t.Latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), t.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[int(p*float64(len(sorted)-1))]) / float64(time.Millisecond)
}

// The driver's retry schedule after a rejected check-in or a transport
// error: jittered exponential, minBackoff doubling to maxBackoff.
const (
	minBackoff = 5 * time.Millisecond
	maxBackoff = 200 * time.Millisecond
)

// backoff is one device's retry schedule. Each wait is a uniform draw in
// [cur/2, 3cur/2) — the jitter de-synchronizes a fleet that was rejected
// in lockstep (a sync-mode fleet otherwise re-checks in within the same
// round), the doubling caps the storm — and never shorter than the
// server's RetryAfter hint.
type backoff struct {
	rnd *mrand.Rand
	cur time.Duration
}

func newBackoff(seed int64) *backoff {
	return &backoff{rnd: mrand.New(mrand.NewSource(seed)), cur: minBackoff}
}

// next returns the wait before the next attempt and doubles the schedule.
func (b *backoff) next(hint time.Duration) time.Duration {
	d := b.cur/2 + time.Duration(b.rnd.Int63n(int64(b.cur)))
	if hint > d {
		d = hint
	}
	b.cur = min(2*b.cur, maxBackoff)
	return d
}

// reset returns the schedule to its floor after the server took a session.
func (b *backoff) reset() { b.cur = minBackoff }

// planned applies an attempt's Plan inside the session: Delay is slept
// between download and training, and Drop/Vanish answer Runtime.Dropout.
type planned struct {
	inner Executor
	plan  Plan
}

// Train implements Executor.
func (p *planned) Train(params []float32, examples [][]int) ([]float32, float64) {
	if p.plan.Delay > 0 {
		time.Sleep(p.plan.Delay)
	}
	return p.inner.Train(params, examples)
}

func (p *planned) dropout() (DropStage, bool) { return p.plan.Drop, p.plan.Vanish }

// Driver runs a fleet of devices in closed loops — each device makes one
// participation attempt at a time: RunOnce, classify the outcome, back off
// after a rejection or a transport error, repeat — and tallies the
// outcomes per device. It is the one client driver behind `papaya
// loadtest`, `papaya fleet` and the scenario engine. A Driver runs once.
type Driver struct {
	// Devices are the runtimes to drive.
	Devices []*Runtime
	// Workers bounds how many devices run at once: a worker runs one
	// device's whole loop, then takes the next device. 0 means one worker
	// per device.
	Workers int
	// Attempts is each device's attempt budget; 0 means unbounded.
	Attempts int
	// Target stops every loop once this many uploads completed across the
	// fleet (sessions already in flight still finish); 0 means no target.
	Target int64
	// Deadline stops every loop at this time: no attempt starts and no
	// backoff sleeps past it. Zero means no deadline.
	Deadline time.Time
	// Plan, when set, draws each attempt's schedule from (client ID,
	// attempt). Start then wraps every device's Exec to pace it and sets
	// its Dropout hook. nil runs every attempt unpaced and available.
	Plan func(clientID int64, attempt int) Plan
	// Observe, when set, sees every attempt as it ends, on the goroutine
	// driving that device.
	Observe func(Attempt)

	stop      chan struct{}
	stopOnce  sync.Once
	completed atomic.Int64
	planned   []*planned
	tallies   []Tally
	wg        sync.WaitGroup
}

// Start launches the loops and returns at once.
func (d *Driver) Start() {
	d.stop = make(chan struct{})
	d.tallies = make([]Tally, len(d.Devices))
	if d.Plan != nil {
		d.planned = make([]*planned, len(d.Devices))
		for i, dev := range d.Devices {
			p := &planned{inner: dev.Exec}
			dev.Exec, dev.Dropout = p, p.dropout
			d.planned[i] = p
		}
	}
	workers := d.Workers
	if workers <= 0 || workers > len(d.Devices) {
		workers = len(d.Devices)
	}
	jobs := make(chan int, len(d.Devices))
	for i := range d.Devices {
		jobs <- i
	}
	close(jobs)
	d.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer d.wg.Done()
			for i := range jobs {
				d.loop(i)
			}
		}()
	}
}

// Stop asks every loop to end after its current attempt, cutting any
// backoff sleep short. It is safe to call more than once, and from
// Observe.
func (d *Driver) Stop() { d.stopOnce.Do(func() { close(d.stop) }) }

// Completed is the fleet-wide count of completed uploads so far.
func (d *Driver) Completed() int64 { return d.completed.Load() }

// Wait blocks until every loop has ended and returns each device's tally,
// indexed like Devices.
func (d *Driver) Wait() []Tally {
	d.wg.Wait()
	return d.tallies
}

// Run is Start then Wait.
func (d *Driver) Run() []Tally {
	d.Start()
	return d.Wait()
}

// running reports whether loops should start another attempt.
func (d *Driver) running() bool {
	select {
	case <-d.stop:
		return false
	default:
	}
	if !d.Deadline.IsZero() && !time.Now().Before(d.Deadline) {
		return false
	}
	return d.Target <= 0 || d.completed.Load() < d.Target
}

// sleep waits for dur, cut short by Stop and capped at the deadline.
func (d *Driver) sleep(dur time.Duration) {
	if !d.Deadline.IsZero() {
		dur = min(dur, time.Until(d.Deadline))
	}
	if dur <= 0 {
		return
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
	case <-d.stop:
	}
}

// loop is device i's closed loop.
func (d *Driver) loop(i int) {
	dev, tally := d.Devices[i], &d.tallies[i]
	b := newBackoff(dev.ClientID)
	for n := 0; (d.Attempts <= 0 || n < d.Attempts) && d.running(); n++ {
		a := Attempt{ClientID: dev.ClientID, Index: n, Plan: Plan{Available: true}}
		if d.Plan != nil {
			a.Plan = d.Plan(dev.ClientID, n)
			d.planned[i].plan = a.Plan
		}
		var took time.Duration
		if a.Plan.Available {
			a.Start = time.Now()
			a.Result, a.Err = dev.RunOnce(a.Start)
			took = time.Since(a.Start)
		}
		tally.count(&a, took)
		if a.Outcome() == string(Completed) {
			d.completed.Add(1)
		}
		if d.Observe != nil {
			d.Observe(a)
		}
		switch a.Outcome() {
		case "error":
			d.sleep(b.next(0))
		case string(Rejected):
			d.sleep(b.next(a.Result.RetryAfter))
		case string(Completed), string(Aborted):
			b.reset()
		}
	}
}
