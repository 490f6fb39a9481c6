package server

import (
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fedopt"
	"repro/internal/round"
	"repro/internal/secagg"
	"repro/internal/transport"
	"repro/internal/vecf"
	"repro/internal/vecpool"
)

// sessionState tracks one client's virtual session on a task.
type sessionState struct {
	clientID     int64
	startVersion int    // guarded by the task mutex
	aborted      bool   // guarded by the task mutex
	abortReason  string // guarded by the task mutex
	// trace is the session's cross-tier trace ID (internal/obs), set
	// once at join and immutable after — readable without a lock. 0
	// means untraced.
	trace uint64

	// Upload assembly runs under the session's own mutex, never the
	// task's: chunk copies for different sessions proceed fully in
	// parallel, which is what un-serializes the upload hot path (the
	// whole-task mutex used to cover every byte of every copy).
	// Reassembly vectors are leased from internal/vecpool and returned
	// when the session ends.
	mu        sync.Mutex
	closed    bool
	pending   []float32
	pendingGp []uint32
	received  int
	// lastActive is the session's most recent client activity (join,
	// download, report, chunk), driving the Timings.SessionTTL reaper.
	lastActive time.Time
}

// touch records client activity on the session.
func (s *sessionState) touch(now time.Time) {
	s.mu.Lock()
	s.lastActive = now
	s.mu.Unlock()
}

// idleSince reports the session's last activity time.
func (s *sessionState) idleSince() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastActive
}

// addChunk copies one chunk into the session's reassembly buffer under the
// session mutex. A non-nil response is a rejection. Coverage is tracked as
// the contiguous prefix of received elements, which makes duplicate chunks
// idempotent: a client that re-sends an upload from offset 0 (the restart
// path when an ack-eliding stream breaks mid-train) re-copies identical
// data without inflating the received count, while a gap still fails
// finishUpload's completeness check.
func (s *sessionState) addChunk(c *UploadChunk, useSecAgg bool, numParams int) *UploadResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return &UploadResponse{OK: false, Reason: "unknown session"}
	}
	s.lastActive = time.Now()
	var n int
	if useSecAgg {
		if s.pendingGp == nil {
			s.pendingGp = vecpool.GetUints(numParams + 1)
		}
		if c.Offset < 0 || c.Offset+len(c.Masked) > len(s.pendingGp) {
			return &UploadResponse{OK: false, Reason: "chunk out of bounds"}
		}
		copy(s.pendingGp[c.Offset:], c.Masked)
		n = len(c.Masked)
	} else {
		if s.pending == nil {
			s.pending = vecpool.GetFloats(numParams)
		}
		if c.Offset < 0 || c.Offset+len(c.Data) > len(s.pending) {
			return &UploadResponse{OK: false, Reason: "chunk out of bounds"}
		}
		copy(s.pending[c.Offset:], c.Data)
		n = len(c.Data)
	}
	if end := c.Offset + n; c.Offset <= s.received && end > s.received {
		s.received = end
	}
	return nil
}

// take detaches the reassembly buffers for aggregation, closing the
// session against further chunk copies. Exactly one caller wins: a
// duplicate Done chunk (or a concurrent close) observes ok=false, so a
// session's update can never be aggregated twice or its buffers released
// twice.
func (s *sessionState) take() (pending []float32, pendingGp []uint32, received int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, 0, false
	}
	s.closed = true
	pending, pendingGp, received = s.pending, s.pendingGp, s.received
	s.pending, s.pendingGp = nil, nil
	return pending, pendingGp, received, true
}

// close releases the session's leased buffers back to the pool. Idempotent
// and safe against in-flight chunk copies: the buffers are detached under
// the session mutex before being released, and late copies observe closed.
func (s *sessionState) close() {
	s.mu.Lock()
	s.closed = true
	pending, pendingGp := s.pending, s.pendingGp
	s.pending, s.pendingGp = nil, nil
	s.mu.Unlock()
	vecpool.PutFloats(pending)
	vecpool.PutUints(pendingGp)
}

// taskState is a task's runtime state on its owning aggregator. Aggregators
// are persistent and stateful (Section 6.3): the task stays here until the
// Coordinator moves it.
//
// Three things guard it. mu, the task mutex, guards the session table and
// the counters. stepMu, the step lock, owns the model: params and the
// release stage's optimizer moments, DP accountant and scratch — only a
// server step writes them, and cold readers (task-info, the heartbeat
// checkpoint) copy them under it. published is what every download serves:
// one record per model version, swapped by a single pointer store. No code
// path holds mu and stepMu at once: every server step runs on the task's
// stepper, which takes them one after the other.
type taskState struct {
	mu   sync.Mutex
	spec TaskSpec
	seq  uint64

	// published is the current model version and its download response,
	// encoded once when the version is published. Its version is the
	// task's model version everywhere.
	published atomic.Pointer[modelVersion]

	stepMu sync.Mutex
	params []float32
	round  *round.Stage // releases run only in step, under stepMu
	// secAgg takes adds under mu and the unmask in step without it. That is
	// safe because the finisher that meets the goal adds and arms the drain
	// in one mu section, and every later finisher waits in awaitDrainLocked
	// until step closes the drain after the unmask: nothing else touches
	// secAgg during a drain, and each release holds exactly the goal.
	secAgg *secagg.Aggregator

	// stepPending marks a server step running off the finishing session's
	// path; settled is broadcast when it clears. draining, while open, is a
	// release whose goal is met and whose drain is still owed; the stepper
	// closes it once drained. All three use mu.
	stepPending bool
	settled     *sync.Cond
	draining    chan struct{}

	sessions    map[uint64]*sessionState
	nextSession uint64
	updates     int64 // client updates received
	// roundReceived counts updates in the current sync round.
	roundReceived int

	// dpExhausted marks the task complete with status "budget_exhausted":
	// the goal was met but one more release would exceed the epsilon
	// budget, so the buffered updates stay unreleased and new joins and
	// uploads are refused. Guarded by mu.
	dpExhausted bool
	// dpEpsilonBits caches the cumulative epsilon as math.Float64bits,
	// written at each release and read lock-free by the scrape-time
	// papaya_dp_epsilon gauge.
	dpEpsilonBits atomic.Uint64

	// lastClose and closeEWMAms feed the RetryAfterMs hint on join
	// rejections: the EWMA of intervals between session closes estimates
	// how soon a slot frees up when the task sits at max concurrency.
	lastClose   time.Time
	closeEWMAms float64
}

// version is the task's current model version: the published one.
func (ts *taskState) version() int { return ts.published.Load().version }

// settleLocked waits until no off-path server step is pending, so the
// caller reads (or changes) a task between releases. Caller holds mu.
func (ts *taskState) settleLocked() {
	for ts.stepPending {
		ts.settled.Wait()
	}
}

// awaitDrainLocked waits, with mu released, until no release whose goal is
// met is still waiting to be drained: a finisher that validates after a
// goal was met adds into the next release, never into that one, so a
// release holds what was buffered when its goal was met. The wait covers
// the drain only, never the optimizer step or the encode. Caller holds mu.
func (ts *taskState) awaitDrainLocked() {
	for ch := ts.draining; ch != nil && !isClosed(ch); ch = ts.draining {
		ts.mu.Unlock()
		<-ch
		ts.mu.Lock()
	}
}

// armDrainLocked records that the buffer holds a release's worth of
// updates and returns the channel its drain will close, reusing one still
// open. Caller holds mu.
func (ts *taskState) armDrainLocked() chan struct{} {
	if ts.draining == nil || isClosed(ts.draining) {
		ts.draining = make(chan struct{})
	}
	return ts.draining
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// dropSessionLocked removes a session from the table and feeds the
// close-interval EWMA behind the join-rejection backoff hint. Caller holds
// ts.mu.
func (ts *taskState) dropSessionLocked(id uint64) {
	delete(ts.sessions, id)
	now := time.Now()
	if !ts.lastClose.IsZero() {
		iv := float64(now.Sub(ts.lastClose)) / float64(time.Millisecond)
		if ts.closeEWMAms == 0 {
			ts.closeEWMAms = iv
		} else {
			ts.closeEWMAms = 0.8*ts.closeEWMAms + 0.2*iv
		}
	}
	ts.lastClose = now
}

// retryAfterLocked returns the backoff hint for a join rejection, clamped
// to [1ms, 5s]; 0 when no close interval has been observed yet (no
// signal — the client keeps its own jittered backoff). Caller holds ts.mu.
func (ts *taskState) retryAfterLocked() int {
	if ts.closeEWMAms == 0 {
		return 0
	}
	ms := int(ts.closeEWMAms + 0.5)
	if ms < 1 {
		ms = 1
	}
	if ms > 5000 {
		ms = 5000
	}
	return ms
}

func newTaskState(req AssignTaskRequest) (*taskState, error) {
	spec := req.Spec
	shards := spec.AggShards
	if shards == 0 {
		shards = 8
	}
	// A task's preferred upload codec must exist in this build's registry,
	// or every negotiated upload would fail at decode time; reject the
	// placement instead so create-task surfaces the typo.
	if spec.Compress != "" && spec.Compress != "none" {
		if _, err := compress.ByName(spec.Compress); err != nil {
			return nil, err
		}
	}
	// Same placement-time validation for the aggregation rule: an unknown
	// rule would otherwise fail on every upload, so reject it here and let
	// create-task surface the typo.
	agg, err := fedopt.AggregationByName(spec.Aggregation, spec.AggParam)
	if err != nil {
		return nil, err
	}
	// DP is validated at placement like the aggregation rule: a bad block
	// must fail create-task, not every later release. SecAgg is excluded
	// because the server-side sensitivity bound needs a plaintext re-clip
	// after dequantize, which masked uploads never expose.
	if spec.DP != nil {
		if err := spec.DP.Validate(); err != nil {
			return nil, err
		}
		if spec.SecAgg != nil {
			return nil, fmt.Errorf("server: DP and SecAgg cannot be combined (the server cannot clip masked updates)")
		}
	}
	if spec.SecAgg != nil {
		// SecAgg clients weight on-device with the default rule and the
		// server only sees the masked sum, so any other rule would be
		// silently ignored.
		if spec.Aggregation != "" && spec.Aggregation != "default" {
			return nil, fmt.Errorf("server: SecAgg tasks aggregate with the default rule (clients weight on-device), not %q", spec.Aggregation)
		}
		// A spec that crossed the wire carries an inert deployment recipe;
		// placement is where this host launches its own enclave from it
		// (Section 5 — each aggregator host runs its own TSA).
		live, err := spec.SecAgg.Live()
		if err != nil {
			return nil, err
		}
		spec.SecAgg = live
	}
	// A placement's optimizer starts fresh: its moments are soft state.
	ts := &taskState{
		spec:     spec,
		seq:      req.Seq,
		round:    round.New(spec.NumParams, spec.AggregationGoal, shards, agg, fedopt.DefaultFedAdam(), spec.DP),
		sessions: make(map[uint64]*sessionState),
	}
	ts.settled = sync.NewCond(&ts.mu)
	if req.Checkpoint != nil {
		ts.params = vecf.Clone(req.Checkpoint)
	} else {
		ts.params = vecf.Clone(spec.InitParams)
	}
	ts.published.Store(newModelVersion(ts.params, req.Version))
	if spec.SecAgg != nil {
		ts.secAgg = spec.SecAgg.NewAggregator()
	}
	return ts, nil
}

// Aggregator is a production aggregation node. One Aggregator executes many
// tasks; every task is assigned to exactly one Aggregator (Section 4).
type Aggregator struct {
	name    string
	net     transport.Fabric
	coord   string
	timings Timings

	mu    sync.Mutex
	tasks map[string]*taskState
	// lastCkptVersion tracks, per task, the model version whose checkpoint
	// the coordinator last acknowledged, so heartbeats ship the (possibly
	// large) model only when it moved; beats drives the periodic re-send
	// that covers coordinator restarts (Appendix E.4 recovery).
	lastCkptVersion map[string]int
	beats           uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// obs holds this node's resolved metric children (obsmetrics.go);
	// hot paths touch only its atomics.
	obs *aggObs
}

// NewAggregator registers an aggregator node on the fabric and starts its
// heartbeat loop toward the coordinator (Section 6.2).
func NewAggregator(name string, net transport.Fabric, coordinator string, timings Timings) *Aggregator {
	a := &Aggregator{
		name:            name,
		net:             net,
		coord:           coordinator,
		timings:         timings,
		tasks:           make(map[string]*taskState),
		lastCkptVersion: make(map[string]int),
		stop:            make(chan struct{}),
		obs:             newAggObs(name),
	}
	// Live session count as a lazily-read gauge: summing per-task maps
	// at scrape time costs nothing on the serving path and can never
	// drift from the maps the way an inc/dec pair could.
	obsreg.GaugeFunc("papaya_active_sessions",
		"Currently open virtual sessions.",
		func() float64 { return float64(a.activeSessionCount()) },
		[]string{"node"}, name)
	net.Register(name, a.handle)
	a.wg.Add(1)
	go a.heartbeatLoop()
	return a
}

// Stop halts the heartbeat loop, unregisters the node and waits for every
// pending server step. It is idempotent.
func (a *Aggregator) Stop() {
	a.stopOnce.Do(func() {
		close(a.stop)
		a.wg.Wait()
		a.net.Unregister(a.name)
		for _, ts := range a.taskList() {
			ts.mu.Lock()
			ts.settleLocked()
			ts.mu.Unlock()
		}
	})
}

func (a *Aggregator) handle(method string, payload any) (any, error) {
	switch method {
	case "assign-task":
		return a.assignTask(payload.(AssignTaskRequest))
	case "drop-task":
		return a.dropTask(payload.(string))
	case "join":
		return a.join(payload.(JoinRequest))
	case "download":
		return a.download(payload.(DownloadRequest))
	case "report":
		return a.report(payload.(ReportRequest))
	case "upload-chunk":
		return a.uploadChunk(payload.(UploadChunk))
	case "fail-session":
		return a.failSession(payload.(FailRequest))
	case "task-info":
		return a.taskInfo(payload.(string))
	case "reconfigure-task":
		return a.reconfigureTask(payload.(ReconfigureRequest))
	default:
		return nil, fmt.Errorf("aggregator %s: unknown method %q", a.name, method)
	}
}

// ReconfigureRequest switches a task between SyncFL and AsyncFL at runtime
// (Appendix E.3: "switching between SyncFL and AsyncFL can be done via a
// configuration change"). The three behaviour changes the paper lists —
// demand computation, stale-client handling, and model aggregation — all
// key off the task's Mode and goal, so the switch is exactly this state
// change.
type ReconfigureRequest struct {
	TaskID          string
	Mode            core.Algorithm
	AggregationGoal int
	MaxStaleness    int
}

func (a *Aggregator) reconfigureTask(req ReconfigureRequest) (any, error) {
	if req.Mode != core.Async && req.Mode != core.Sync {
		return nil, fmt.Errorf("aggregator %s: unknown mode %q", a.name, req.Mode)
	}
	if req.AggregationGoal < 1 {
		return nil, fmt.Errorf("aggregator %s: aggregation goal must be >= 1", a.name)
	}
	ts, err := a.task(req.TaskID)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	// The switch lands between releases: a pending step finishes under the
	// configuration that triggered it.
	ts.settleLocked()
	ts.spec.Mode = req.Mode
	ts.spec.AggregationGoal = req.AggregationGoal
	ts.spec.MaxStaleness = req.MaxStaleness
	ts.round.Buf.SetGoal(req.AggregationGoal)
	ts.roundReceived = 0
	return true, nil
}

func (a *Aggregator) assignTask(req AssignTaskRequest) (any, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cur, ok := a.tasks[req.Spec.ID]; ok {
		if cur.seq >= req.Seq {
			return true, nil // idempotent re-assignment
		}
	}
	ts, err := newTaskState(req)
	if err != nil {
		return nil, fmt.Errorf("aggregator %s: placing task %q: %w", a.name, req.Spec.ID, err)
	}
	a.tasks[req.Spec.ID] = ts
	if ts.round.DP != nil {
		// Per-task epsilon gauge, sampled lock-free at scrape time from
		// the bits cached at each release; re-placement re-registers the
		// same label tuple, replacing the closure.
		registerDPEpsilonGauge(a.name, req.Spec.ID, func() float64 {
			return math.Float64frombits(ts.dpEpsilonBits.Load())
		})
	}
	return true, nil
}

func (a *Aggregator) dropTask(taskID string) (any, error) {
	a.mu.Lock()
	ts := a.tasks[taskID]
	delete(a.tasks, taskID)
	delete(a.lastCkptVersion, taskID)
	a.mu.Unlock()
	if ts != nil {
		// Return the dropped task's leased session buffers to the pool once
		// its last step has settled.
		ts.mu.Lock()
		ts.settleLocked()
		sessions := make([]*sessionState, 0, len(ts.sessions))
		for _, s := range ts.sessions {
			sessions = append(sessions, s)
		}
		ts.sessions = make(map[uint64]*sessionState)
		ts.mu.Unlock()
		for _, s := range sessions {
			s.close()
		}
		a.obs.sessionsClosed.Add(int64(len(sessions)))
	}
	return true, nil
}

func (a *Aggregator) task(id string) (*taskState, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts, ok := a.tasks[id]
	if !ok {
		return nil, fmt.Errorf("aggregator %s: task %q not assigned here", a.name, id)
	}
	return ts, nil
}

// join enforces max concurrency (Appendix E.1) and opens a virtual session.
func (a *Aggregator) join(req JoinRequest) (any, error) {
	start := time.Now()
	ts, err := a.task(req.TaskID)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.spec.Mode == core.Sync {
		// A closed round may still be stepping; the next cohort starts at
		// the version that step publishes.
		ts.settleLocked()
	}
	if ts.dpExhausted {
		// The task is complete: its privacy budget cannot cover another
		// release, so new participants would train for nothing.
		a.obs.span(req.TraceID, "join", req.TaskID, 0, start, "budget_exhausted")
		return JoinResponse{Accepted: false, Reason: "budget_exhausted"}, nil
	}
	if len(ts.sessions) >= ts.spec.Concurrency {
		a.obs.span(req.TraceID, "join", req.TaskID, 0, start, "task at max concurrency")
		// The rejection carries the task's own estimate of when a slot
		// frees up, so rejected clients back off for one expected
		// session-close interval instead of hammering the selector.
		return JoinResponse{Accepted: false, Reason: "task at max concurrency", RetryAfterMs: ts.retryAfterLocked()}, nil
	}
	ts.nextSession++
	id, version := ts.nextSession, ts.version()
	ts.sessions[id] = &sessionState{clientID: req.ClientID, startVersion: version, lastActive: time.Now(), trace: req.TraceID}
	a.obs.sessionsOpened.Inc()
	a.obs.span(req.TraceID, "join", req.TaskID, id, start, "")
	return JoinResponse{Accepted: true, SessionID: id, Version: version}, nil
}

// download serves the published model version: the task mutex covers only
// the session lookup, and the answer is the version's record, whose
// response frame was encoded once when the version was published. It never
// waits for a pending server step; FedBuff's staleness weight exists for
// exactly the client that trains one version behind.
func (a *Aggregator) download(req DownloadRequest) (any, error) {
	start := time.Now()
	ts, err := a.task(req.TaskID)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	s, ok := ts.sessions[req.SessionID]
	if !ok {
		ts.mu.Unlock()
		return nil, fmt.Errorf("aggregator %s: unknown session %d", a.name, req.SessionID)
	}
	// The client trains against the version it downloads; if the model
	// moved between join and download, restart the session at that version
	// (equivalent to AFL's version check).
	mv := ts.published.Load()
	s.startVersion = mv.version
	ts.mu.Unlock()
	s.touch(time.Now())
	a.obs.span(s.trace, "download", req.TaskID, req.SessionID, start, "")
	return mv, nil
}

// report hands the client its upload configuration (participation stage 3),
// including the SecAgg bundle when the task runs with secure aggregation.
func (a *Aggregator) report(req ReportRequest) (any, error) {
	start := time.Now()
	ts, err := a.task(req.TaskID)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	s, ok := ts.sessions[req.SessionID]
	if !ok {
		ts.mu.Unlock()
		return ReportResponse{OK: false, Reason: "unknown session"}, nil
	}
	s.touch(time.Now())
	if s.aborted {
		reason := s.abortReason
		ts.dropSessionLocked(req.SessionID)
		ts.mu.Unlock()
		s.close()
		a.obs.sessionsClosed.Inc()
		a.obs.span(s.trace, "report", req.TaskID, req.SessionID, start, reason)
		return ReportResponse{OK: false, Reason: reason}, nil
	}
	chunk := ts.spec.UploadChunkSize
	if chunk <= 0 {
		chunk = 4096
	}
	resp := ReportResponse{
		OK:             true,
		ChunkSize:      chunk,
		CurrentVersion: ts.version(),
	}
	// Upload-compression negotiation: the task's preference against what
	// this client offered (Section 7's communication lever; an empty offer
	// degrades to raw). SecAgg uploads always travel raw: masked values
	// are uniform over Z_2^32, so no codec shrinks them.
	if ts.spec.SecAgg == nil {
		resp.Compress = compress.Negotiate(ts.spec.Compress, req.Compress)
	}
	if dpc := ts.spec.DP; dpc != nil {
		// Ask the client to clip BEFORE it quantizes (ROADMAP ordering) so
		// quantization error cannot push a compliant update past the bound
		// it targets; the server still re-clips after dequantize.
		resp.DPClip = dpc.Clip
		if dpc.Local {
			resp.DPLocalNoise = dpc.NoiseMultiplier * dpc.Clip
		}
	}
	dep := ts.spec.SecAgg
	ts.mu.Unlock()
	// Codec negotiation outcome: which upload codec chain this session
	// will actually use ("raw" when the negotiation yielded nothing).
	a.obs.negotiated(resp.Compress)
	a.obs.span(s.trace, "report", req.TaskID, req.SessionID, start, "")

	if dep != nil {
		bundles, err := dep.FetchInitialBundles(1)
		if err != nil {
			return nil, fmt.Errorf("aggregator %s: fetching SecAgg bundle: %w", a.name, err)
		}
		resp.SecAggEnabled = true
		resp.SecAggBundle = &bundles[0]
		resp.SecAggTrust = dep.ClientTrust()
	}
	return resp, nil
}

func (a *Aggregator) failSession(req FailRequest) (any, error) {
	start := time.Now()
	ts, err := a.task(req.TaskID)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	s := ts.sessions[req.SessionID]
	ts.dropSessionLocked(req.SessionID)
	ts.mu.Unlock()
	if s != nil {
		s.close()
		a.obs.sessionsClosed.Inc()
		a.obs.span(s.trace, "fail", req.TaskID, req.SessionID, start, "client-failed")
	}
	return true, nil
}

// uploadChunk assembles a session's update; the final chunk triggers
// aggregation. Model updates arrive in chunks (participation stage 4).
//
// This is the serving hot path, and it deliberately holds the task mutex
// only for map lookups and counter updates. Chunk decompression runs
// outside every lock; the copy into the session's reassembly buffer runs
// under the session's own mutex; and in AsyncFL the final accumulate runs
// under the aggregation buffer's per-shard locks (Section 6.3's parallel
// buffered aggregation), so concurrent uploads from different sessions
// contend only on their shard, never on the whole task.
func (a *Aggregator) uploadChunk(c UploadChunk) (out any, err error) {
	start := time.Now()
	var trace uint64
	defer func() {
		// One histogram observation per chunk accept — the hot-path
		// latency series — plus the chunk span for traced sessions
		// (both are atomic-cheap; RecordSpan no-ops on trace 0).
		a.obs.chunkSeconds.Observe(time.Since(start).Seconds())
		errText := ""
		if resp, isResp := out.(UploadResponse); isResp && !resp.OK {
			errText = resp.Reason
		}
		a.obs.span(trace, "chunk", c.TaskID, c.SessionID, start, errText)
	}()
	ts, err := a.task(c.TaskID)
	if err != nil {
		return nil, err
	}

	ts.mu.Lock()
	useSecAgg := ts.spec.SecAgg != nil
	numParams := ts.spec.NumParams
	s, ok := ts.sessions[c.SessionID]
	if ok {
		trace = s.trace
	}
	if ok && s.aborted {
		reason := s.abortReason
		ts.dropSessionLocked(c.SessionID)
		ts.mu.Unlock()
		s.close()
		a.obs.sessionsClosed.Inc()
		a.obs.uploadRejects.Inc()
		return UploadResponse{OK: false, Reason: reason}, nil
	}
	ts.mu.Unlock()
	if !ok {
		return UploadResponse{OK: false, Reason: "unknown session"}, nil
	}

	// A packed chunk carries a self-describing compression frame instead
	// of raw elements; decode it into the path the rest of the assembly
	// logic already handles. Only plaintext tasks negotiate a codec, so a
	// packed chunk on a SecAgg task is refused. Two rules guard the
	// decode: the declared element count is validated against the task's
	// dimensions *before* any allocation (a hostile frame must not buy a
	// huge decode), and the flate/dequantize work runs outside every lock
	// so one client's decompression never serializes the task's upload
	// path. The decode target is leased from the pool and released once
	// the elements are copied into the session buffer. A malformed frame
	// rejects the session's upload, not the aggregator.
	if len(c.Packed) > 0 {
		if useSecAgg {
			return UploadResponse{OK: false, Reason: "compressed chunk on a SecAgg task: masked uploads travel raw"}, nil
		}
		_, n, err := compress.FrameInfo(c.Packed)
		switch {
		case err != nil:
			return UploadResponse{OK: false, Reason: "bad compressed chunk: " + err.Error()}, nil
		case c.Offset < 0 || c.Offset > numParams || n > numParams-c.Offset:
			return UploadResponse{OK: false, Reason: "chunk out of bounds"}, nil
		}
		vals := vecpool.GetFloats(n)
		defer vecpool.PutFloats(vals)
		if err := compress.DecompressFloatsInto(vals, c.Packed); err != nil {
			return UploadResponse{OK: false, Reason: "bad compressed chunk: " + err.Error()}, nil
		}
		c.Data = vals
	}

	if resp := s.addChunk(&c, useSecAgg, numParams); resp != nil {
		return *resp, nil
	}
	if !c.Done {
		return UploadResponse{OK: true}, nil
	}
	return a.finishUpload(ts, c, s)
}

// finishUpload completes a session's upload and runs the aggregation path.
// It owns the session's reassembly buffers (via take) and must release
// them on every path once their contents are folded into durable state.
func (a *Aggregator) finishUpload(ts *taskState, c UploadChunk, s *sessionState) (out any, err error) {
	finishStart := time.Now()
	defer func() {
		a.obs.finishSeconds.Observe(time.Since(finishStart).Seconds())
		if resp, isResp := out.(UploadResponse); isResp && !resp.OK {
			a.obs.uploadRejects.Inc()
		}
	}()
	pending, pendingGp, received, ok := s.take()
	if !ok {
		return UploadResponse{OK: false, Reason: "unknown session"}, nil
	}
	release := func() {
		vecpool.PutFloats(pending)
		vecpool.PutUints(pendingGp)
	}

	// Plaintext update hygiene plus the DP sensitivity bound, both outside
	// every lock like the chunk decode. A non-finite update is rejected:
	// NaN survives clipping (every comparison with it is false), so one
	// poisoned raw-codec delta would otherwise corrupt the whole aggregate
	// — the packed codecs already sanitize at encode time, this covers the
	// raw path. DP tasks then re-clip after dequantize, because int8/int16
	// quantization error can inflate a client-side-clipped norm past the
	// bound the noise is calibrated for. ClipUpdate is stateless, so it is
	// safe on this sharded concurrent path.
	finite := true
	if pendingGp == nil {
		finite = vecf.AllFinite(pending)
		if m := ts.round.DP; finite && m != nil {
			a.obs.dpClipFraction.Observe(m.ClipUpdate(pending) / m.Clip())
		}
	}

	ts.mu.Lock()
	ts.awaitDrainLocked()
	if cur, live := ts.sessions[c.SessionID]; !live || cur != s {
		ts.mu.Unlock()
		release()
		return UploadResponse{OK: false, Reason: "unknown session"}, nil
	}
	// reject refuses the upload and closes its session. Caller holds ts.mu;
	// reject releases it.
	reject := func(reason string) (any, error) {
		ts.dropSessionLocked(c.SessionID)
		ts.mu.Unlock()
		release()
		a.obs.sessionsClosed.Inc()
		return UploadResponse{OK: false, Reason: reason}, nil
	}
	staleness := ts.version() - s.startVersion
	switch {
	case !finite:
		return reject("non-finite update")
	case s.aborted:
		return reject(s.abortReason)
	case ts.dpExhausted:
		// The budget capped out while this client trained; its update can
		// never be released, so refuse it like an abort.
		return reject("budget_exhausted")
	case ts.spec.MaxStaleness > 0 && staleness > ts.spec.MaxStaleness:
		return reject("staleness exceeded")
	case ts.spec.SecAgg != nil && received != ts.spec.NumParams+1:
		return reject("incomplete masked upload")
	case ts.spec.SecAgg == nil && received != ts.spec.NumParams:
		return reject("incomplete upload")
	}

	switch {
	case ts.spec.SecAgg != nil:
		// The SecAgg add (host sum + enclave boundary call) is not
		// concurrency-safe and stays under the task mutex, in the same
		// section as the goal check; the boundary crossing dominates its
		// cost anyway (Section 5). Clients weight on-device with the
		// default rule, the only one a SecAgg task accepts.
		up := secagg.Upload{
			Index:      c.SecAggIndex,
			Masked:     pendingGp,
			Completing: c.SecAggCompleting,
			EncSeed:    c.SecAggEncSeed,
		}
		if err := ts.secAgg.Add(up); err != nil {
			return reject(err.Error())
		}

	case ts.spec.Mode == core.Sync:
		// A SyncFL round closes atomically: the add, the round counter and
		// the round close (with its over-selection discard, Appendix E.3)
		// stay consistent under the task mutex.
		ts.round.Buf.Add(pending, ts.round.Rule.Weight(c.NumExamples, staleness), int(s.clientID))

	default:
		// AsyncFL (FedBuff): the sharded fast path. The accumulate runs
		// outside the task mutex — buffer shards carry their own locks
		// (the buffer.NumShards semantics the parallel engine introduced),
		// so concurrent finishing sessions contend per shard. Whether the
		// goal is met is decided from the buffered count once the counters
		// are re-locked, which keeps exactly one finisher triggering each
		// server step.
		//
		// One deliberate relaxation versus a fully locked path: the version
		// can advance between the staleness check above and this Add. A
		// pending step may publish, or a finisher that passed the check
		// just before another one triggered a step may race that step's
		// drain, landing in it or in the release after. Either way the
		// update's weight can be one step stale — exactly the
		// arrival-order tolerance FedBuff is built on (Section 6.3). It
		// stays bounded at one step: the staleness check reads the version
		// under ts.mu, awaitDrainLocked kept this finisher out of any drain
		// already running, and only one step is ever pending.
		w := ts.round.Rule.Weight(c.NumExamples, staleness)
		ts.mu.Unlock()
		ts.round.Buf.Add(pending, w, int(s.clientID))
		ts.mu.Lock()
	}
	a.countAndMaybeStepLocked(ts, c.SessionID)
	ts.mu.Unlock()
	release()
	return UploadResponse{OK: true}, nil
}

// countAndMaybeStepLocked finishes an accepted upload's bookkeeping and,
// when the aggregation goal is met, hands the release to the task's
// stepper. Caller holds ts.mu. The goal check reads live state under the
// lock (buffered count, SecAgg received count, or the sync round counter)
// rather than a value computed before locking, so concurrent finishers
// cannot double-trigger a release.
//
// Every mode releases on the same schedule. The finisher that meets the
// goal arms the drain, marks a step pending, starts the stepper and is
// answered at once; it never runs a server step itself. A sync round
// closes here, with its over-selection discard (Appendix E.3): every
// session still training is aborted, and one released by the drain sees
// its abort. A finisher that meets the goal again while a step is pending
// only arms the next drain, because the stepper re-checks the goal under
// ts.mu before it lets go.
func (a *Aggregator) countAndMaybeStepLocked(ts *taskState, sessionID uint64) {
	var trace uint64
	if s := ts.sessions[sessionID]; s != nil {
		trace = s.trace
	}
	ts.updates++
	ts.roundReceived++
	ts.dropSessionLocked(sessionID)
	a.obs.uploads.Inc()
	a.obs.sessionsClosed.Inc()

	if !ts.goalMetLocked() {
		return
	}
	if ts.spec.Mode == core.Sync {
		ts.roundReceived = 0
		for _, s := range ts.sessions {
			s.aborted, s.abortReason = true, "round closed"
		}
	}
	drained := ts.armDrainLocked()
	if !ts.stepPending {
		ts.stepPending = true
		go a.stepLoop(ts, drained, trace, sessionID)
	}
}

// goalMetLocked reports whether the task holds a release's worth of
// updates. Caller holds ts.mu.
func (ts *taskState) goalMetLocked() bool {
	if ts.dpExhausted {
		return false
	}
	var met bool
	switch {
	case ts.spec.Mode == core.Sync:
		met = ts.roundReceived >= ts.spec.AggregationGoal
	case ts.spec.SecAgg != nil:
		met = ts.secAgg.Received() >= ts.spec.AggregationGoal
	default:
		// Also covers a runtime goal change (Appendix E.3): a buffer
		// already holding more than the new goal triggers on the next
		// accepted upload.
		met = ts.round.Buf.Count() >= ts.spec.AggregationGoal
	}
	// A mode switch can leave the round counter satisfied while the buffer
	// is empty (the updates were released under the previous mode); a
	// release on an empty buffer is a protocol bug, so there is no step.
	return met && (ts.spec.SecAgg != nil || ts.round.Buf.Count() > 0)
}

// stepLoop is the task's stepper, started by the finisher that met the
// goal. It steps while the task holds at least the goal, then clears the
// pending mark and wakes whoever waits for a settled task. drained is the
// channel the next step closes once its drain is done; a drain armed for a
// release that will not happen is closed on the way out. Each released
// step feeds the step histogram and counter, and the first one also the
// aggregate span on the triggering session's trace (its last hop).
//
// After each step, under ts.mu: a refused release (one more would exceed
// the epsilon budget) completes the task with status "budget_exhausted",
// aborting its sessions with that reason, and join and upload refuse it
// from then on; after an AsyncFL release, sessions whose staleness now
// exceeds the limit are aborted (Appendix E.2).
func (a *Aggregator) stepLoop(ts *taskState, drained chan struct{}, trace, sessionID uint64) {
	for {
		start := time.Now()
		released, err := a.step(ts, drained)
		if released {
			a.obs.stepSeconds.Observe(time.Since(start).Seconds())
			a.obs.aggregateSteps.Inc()
			a.obs.span(trace, "aggregate", ts.spec.ID, sessionID, start, "")
		}
		ts.mu.Lock()
		switch {
		case err != nil:
			log.Printf("aggregator %s: task %q: %v", a.name, ts.spec.ID, err)
		case !released:
			ts.dpExhausted = true
			for _, s := range ts.sessions {
				s.aborted, s.abortReason = true, "budget_exhausted"
			}
		case ts.spec.Mode != core.Sync && ts.spec.MaxStaleness > 0:
			version := ts.version()
			for _, s := range ts.sessions {
				if version-s.startVersion > ts.spec.MaxStaleness {
					s.aborted, s.abortReason = true, "staleness exceeded"
				}
			}
		}
		if err != nil || !ts.goalMetLocked() {
			if ch := ts.draining; ch != nil && !isClosed(ch) {
				close(ch)
			}
			ts.stepPending, ts.draining = false, nil
			ts.settled.Broadcast()
			ts.mu.Unlock()
			return
		}
		drained = ts.armDrainLocked()
		ts.mu.Unlock()
		trace, sessionID = 0, 0
	}
}

// step is one server step under the step lock and never under ts.mu: the
// task's release stage runs the release (a SecAgg task drains by
// unmasking), then step publishes the new version, its download response
// encoded once. drained is closed right after the drain. step reports
// false, releasing nothing, when one more release would exceed the
// epsilon budget; stepLoop then closes drained on its way out.
func (a *Aggregator) step(ts *taskState, drained chan struct{}) (bool, error) {
	ts.stepMu.Lock()
	defer ts.stepMu.Unlock()
	if ts.spec.SecAgg != nil {
		// Slots [0,n) of the unmasked group hold sum(w_i * delta_i) and slot
		// n holds sum(w_i).
		if err := ts.round.ReleaseFrom(ts.params, func(mean []float32) error {
			group, _, err := ts.secAgg.UnmaskGroup()
			close(drained)
			if err != nil {
				return fmt.Errorf("aggregator %s: unmask: %w", a.name, err)
			}
			codec := ts.spec.SecAgg.Params.Codec()
			codec.DecodeVec(mean, group[:len(mean)])
			totalW := float32(codec.Decode(group[len(mean)]))
			if totalW <= 0 {
				return fmt.Errorf("aggregator %s: secure aggregate has non-positive total weight", a.name)
			}
			vecf.Scale(mean, 1/totalW)
			return nil
		}); err != nil {
			return false, err
		}
	} else if m := ts.round.DP; !ts.round.Release(ts.params, func() { close(drained) }) {
		log.Printf("aggregator %s: task %q epsilon budget exhausted after %d release(s) (eps=%.3f, budget=%.3f)",
			a.name, ts.spec.ID, m.Releases(), m.Epsilon(), m.Budget())
		return false, nil
	} else if m != nil {
		ts.dpEpsilonBits.Store(math.Float64bits(m.Epsilon()))
		a.obs.dpReleases.Inc()
	}
	ts.published.Store(newModelVersion(ts.params, ts.version()+1))
	return true, nil
}

// TaskInfo is the "task-info" response: a task's observable state (model
// version, accepted client updates per Section 6.3's buffered aggregation,
// live sessions) for tests, operators, and the loadtest driver.
type TaskInfo struct {
	// Version is the server model version (increments per server step).
	Version int
	// Updates counts accepted client updates since placement.
	Updates int64
	// Active is the number of open virtual sessions (Section 6.1).
	Active int
	// Params is a snapshot of the current server model.
	Params []float32
	// Mode is the task's current aggregation mode (Appendix E.3 switches
	// it at runtime).
	Mode core.Algorithm
	// DPEnabled reports whether the task runs under central DP; the
	// remaining DP fields are meaningful only when it is set.
	DPEnabled bool
	// DPEpsilon is the cumulative epsilon spent at DPDelta.
	DPEpsilon float64
	// DPDelta is the task's configured delta.
	DPDelta float64
	// DPReleases counts noised aggregate releases.
	DPReleases int
	// DPBudget is the configured epsilon cap (0 = unlimited).
	DPBudget float64
	// DPExhausted reports the task completed with status
	// "budget_exhausted": the next release would exceed DPBudget.
	DPExhausted bool
}

// taskInfo reports a settled task: it waits for a pending server step, so
// a caller that saw its last upload acknowledged reads the version that
// upload led to. The model is a plain copy taken under the step lock.
func (a *Aggregator) taskInfo(taskID string) (any, error) {
	ts, err := a.task(taskID)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	ts.settleLocked()
	info := TaskInfo{
		Updates:     ts.updates,
		Active:      len(ts.sessions),
		Mode:        ts.spec.Mode,
		DPExhausted: ts.dpExhausted,
	}
	ts.mu.Unlock()

	ts.stepMu.Lock()
	defer ts.stepMu.Unlock()
	info.Version = ts.version()
	info.Params = vecf.Clone(ts.params)
	if m := ts.round.DP; m != nil {
		info.DPEnabled = true
		info.DPEpsilon = m.Epsilon()
		info.DPDelta = m.Delta()
		info.DPReleases = m.Releases()
		info.DPBudget = m.Budget()
	}
	return info, nil
}

// checkpoint copies the model and its version under the step lock, so the
// two always match.
func (ts *taskState) checkpoint() ([]float32, int) {
	ts.stepMu.Lock()
	defer ts.stepMu.Unlock()
	return vecf.Clone(ts.params), ts.version()
}

// taskList snapshots the tasks this aggregator hosts.
func (a *Aggregator) taskList() []*taskState {
	a.mu.Lock()
	defer a.mu.Unlock()
	tasks := make([]*taskState, 0, len(a.tasks))
	for _, ts := range a.tasks {
		tasks = append(tasks, ts)
	}
	return tasks
}

// activeSessionCount sums open sessions across this aggregator's tasks;
// sampled lazily by the papaya_active_sessions gauge at scrape time.
func (a *Aggregator) activeSessionCount() int {
	n := 0
	for _, ts := range a.taskList() {
		ts.mu.Lock()
		n += len(ts.sessions)
		ts.mu.Unlock()
	}
	return n
}

// heartbeatLoop reports demand and checkpoints to the coordinator
// (Section 6.2: "each Aggregator tracks client demand for the tasks that are
// assigned to it") and executes drop directives for stale assignments.
func (a *Aggregator) heartbeatLoop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.timings.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-ticker.C:
			a.reapSessions(time.Now())
			a.sendReport()
		}
	}
}

// reapSessions closes sessions idle past Timings.SessionTTL, releasing
// their concurrency slot and leased reassembly vector — the fix for the
// PR-4 leak where a silently dead client held both until task drop. Runs
// on the heartbeat tick; streaming transports give dead clients a natural
// close signal (the stream breaks), but the TTL is the backstop that
// needs no cooperation from any transport.
func (a *Aggregator) reapSessions(now time.Time) {
	ttl := a.timings.SessionTTL
	if ttl <= 0 {
		return
	}
	for _, ts := range a.taskList() {
		var dead []*sessionState
		var deadIDs []uint64
		ts.mu.Lock()
		taskID := ts.spec.ID
		for id, s := range ts.sessions {
			if now.Sub(s.idleSince()) > ttl {
				ts.dropSessionLocked(id)
				dead = append(dead, s)
				deadIDs = append(deadIDs, id)
			}
		}
		ts.mu.Unlock()
		// close returns the leased buffers outside the task mutex; a
		// concurrent in-flight chunk copy observes the closed marker and
		// is rejected, never a buffer handed to another session.
		for i, s := range dead {
			s.close()
			a.obs.span(s.trace, "reap", taskID, deadIDs[i], now, "session ttl exceeded")
		}
		// A reap is not a clean close: it means a client went silent
		// holding a concurrency slot, so it gets its own counter and a
		// log line — the signal PR 7's silent-vanish scenarios are
		// confirmed by on a live fleet.
		if len(dead) > 0 {
			a.obs.sessionsReaped.Add(int64(len(dead)))
			log.Printf("aggregator %s: reaped %d session(s) idle past %v on task %q",
				a.name, len(dead), ttl, taskID)
		}
	}
}

func (a *Aggregator) sendReport() {
	report := AggReport{Aggregator: a.name, Tasks: make(map[string]TaskReport)}
	// Checkpoints are the expensive part of a report (a full model clone,
	// and over the network a full model transfer): ship one only when
	// the version moved past what the coordinator acknowledged, plus a
	// periodic refresh so a restarted coordinator repopulates its
	// checkpoint table within a few beats (E.4 recovery). The clone is
	// taken under the step lock, never the task mutex.
	ckptSent := make(map[string]int)
	a.mu.Lock()
	a.beats++
	refresh := a.beats%8 == 0
	tasks := make(map[string]*taskState, len(a.tasks))
	acked := make(map[string]int, len(a.tasks))
	for id, ts := range a.tasks {
		tasks[id] = ts
		if v, ok := a.lastCkptVersion[id]; ok {
			acked[id] = v
		}
	}
	a.mu.Unlock()
	for id, ts := range tasks {
		ts.mu.Lock()
		tr := TaskReport{
			Spec:          ts.spec,
			Seq:           ts.seq,
			ActiveClients: len(ts.sessions),
			Demand:        ts.spec.Concurrency - len(ts.sessions),
			Version:       ts.version(),
			Updates:       ts.updates,
		}
		ts.mu.Unlock()
		if v, ok := acked[id]; refresh || !ok || v != tr.Version {
			tr.Checkpoint, tr.Version = ts.checkpoint()
			ckptSent[id] = tr.Version
		}
		report.Tasks[id] = tr
	}

	resp, err := a.net.Call(a.name, a.coord, "agg-report", report)
	if err != nil {
		return // coordinator unreachable; keep executing last assignments (E.4)
	}
	a.mu.Lock()
	for id, v := range ckptSent {
		a.lastCkptVersion[id] = v
	}
	a.mu.Unlock()
	if directive, ok := resp.(AggDirective); ok {
		for _, id := range directive.DropTasks {
			_, _ = a.dropTask(id)
		}
	}
}
