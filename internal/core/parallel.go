package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/lmdata"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/round"
)

// This file implements the parallel training engine: client local SGD runs
// on a pool of worker goroutines while the single-threaded discrete-event
// loop keeps ordering all simulation decisions. The design preserves a
// strict determinism contract — for a fixed Config (including AggShards),
// the Result is bit-for-bit identical for ANY Workers value — by keying
// every source of nondeterminism on values the event loop assigns:
//
//   - A session's local-SGD randomness is rng.New(Seed).SplitAt(
//     "local-update", sessionID): a pure function of (seed, session ID),
//     independent of which worker runs it or when it completes.
//   - A session trains against an immutable, reference-counted snapshot of
//     the server model taken when the event loop started the session, so
//     concurrent server steps never race with training reads.
//   - Floating-point accumulation order is fixed: each buffer shard has a
//     dedicated consumer goroutine that applies adds in the FIFO order the
//     event loop enqueued them (session-finish order), and a release folds
//     shards in index order on the event loop.
//
// The event loop blocks only at serverStep, where it flushes the shard
// queues before releasing the buffer; between releases, training and
// aggregation proceed concurrently with event processing, which is what
// converts multi-core hardware into wall-clock speedup. Training is
// submitted when a session's upload is accepted (its inputs — the start-
// version snapshot, the client dataset, the session-keyed RNG — were all
// fixed at start), so up to AggregationGoal local updates are in flight
// between consecutive server steps.

// paramsSnap is an immutable reference-counted snapshot of the server model
// at one version. Sessions retain the snapshot they "downloaded" instead of
// cloning the full vector; the last release returns the storage to the pool.
type paramsSnap struct {
	data []float32
	refs atomic.Int64
}

// newSnap wraps data with an initial reference held by the creator.
func newSnap(data []float32) *paramsSnap {
	s := &paramsSnap{data: data}
	s.refs.Store(1)
	return s
}

func (p *paramsSnap) retain() { p.refs.Add(1) }

// release drops one reference, recycling the storage once nobody holds the
// snapshot. pool may be nil to opt the storage out of recycling (the final
// model, which the Result returns to the caller).
func (p *paramsSnap) release(pool *nn.Pool) {
	if p.refs.Add(-1) == 0 && pool != nil {
		pool.Put(p.data)
	}
}

// aggReq is one unit of work for a shard consumer: a weighted add of a
// finished session's delta, or a flush barrier token (flush != nil).
type aggReq struct {
	s     *session
	w     float64
	flush *sync.WaitGroup
}

// trainEngine owns the worker goroutines and the per-shard aggregation
// consumers for one run. It is created by newRunner when training is
// enabled and stopped when the run returns.
type trainEngine struct {
	model     nn.Model
	corpus    *lmdata.Corpus
	clientCfg nn.SGDConfig
	stage     *round.Stage
	pool      *nn.Pool

	// sessRoot is a frozen generator at the run seed. Workers only call
	// SplitAt on it (which reads but never advances state), so sharing it
	// across goroutines is race-free.
	sessRoot *rng.RNG

	jobs     chan *session
	shardQ   []chan aggReq
	workerWg sync.WaitGroup
	shardWg  sync.WaitGroup
	stopping atomic.Bool
}

func newTrainEngine(model nn.Model, corpus *lmdata.Corpus, cfg Config, stage *round.Stage, pool *nn.Pool) *trainEngine {
	t := &trainEngine{
		model:     model,
		corpus:    corpus,
		clientCfg: cfg.Client,
		stage:     stage,
		pool:      pool,
		sessRoot:  rng.New(cfg.Seed),
		jobs:      make(chan *session, 2*cfg.Concurrency+2),
		shardQ:    make([]chan aggReq, stage.Buf.NumShards()),
	}
	qcap := cfg.Concurrency + cfg.AggregationGoal + 1
	for i := range t.shardQ {
		t.shardQ[i] = make(chan aggReq, qcap)
	}
	t.workerWg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go t.worker()
	}
	t.shardWg.Add(len(t.shardQ))
	for i := range t.shardQ {
		go t.shardConsumer(i)
	}
	return t
}

// submit hands an accepted session to the worker pool. The session must
// hold a retained snapshot and an open done channel. Submission happens at
// finish time, after the server accepts the upload, so discarded sessions
// (dropouts, timeouts, staleness aborts, over-selection) never cost
// training compute — the worker-pool run does exactly the serial run's
// training work.
func (t *trainEngine) submit(s *session) { t.jobs <- s }

// submitAdd enqueues a finished session's weighted delta for aggregation.
// The consumer waits for training to complete, so the event loop never
// blocks here (the queue is sized for the maximum in-flight count).
//
// A non-positive weight panics here, on the event loop where the weight was
// computed, preserving buffer.Add's contract: silently dropping a client's
// contribution (while the release trigger still counts it) would corrupt
// training. A staleness policy that wants to exclude updates must use
// MaxStaleness, not a zero weight.
func (t *trainEngine) submitAdd(s *session, w float64) {
	if w <= 0 {
		panic("core: aggregation weight must be positive (zero-weighting a received update would silently corrupt the release trigger)")
	}
	t.shardQ[t.shardOf(s)] <- aggReq{s: s, w: w}
}

// shardOf deterministically maps a session to a shard by client ID, the
// same keying the serial implementation passed as the buffer's shard hint.
func (t *trainEngine) shardOf(s *session) int {
	return int(uint64(s.client.ID) % uint64(len(t.shardQ)))
}

// flush blocks until every add enqueued so far has been applied to the
// buffer. serverStep calls it just before the release; this is the only
// point where the event loop waits on training.
func (t *trainEngine) flush() {
	var wg sync.WaitGroup
	wg.Add(len(t.shardQ))
	for i := range t.shardQ {
		t.shardQ[i] <- aggReq{flush: &wg}
	}
	wg.Wait()
}

// stop drains the engine: jobs still queued when the run halted are skipped
// (their deltas are never consumed), workers exit, then the shard consumers
// finish their queues and exit. After stop returns no engine goroutine is
// alive.
func (t *trainEngine) stop() {
	t.stopping.Store(true)
	close(t.jobs)
	t.workerWg.Wait()
	for i := range t.shardQ {
		close(t.shardQ[i])
	}
	t.shardWg.Wait()
}

// worker runs client local updates until the jobs channel closes. Each
// worker owns one nn.Trainer so a session allocates nothing proportional to
// the model: the delta comes from the pool and the snapshot is shared.
func (t *trainEngine) worker() {
	defer t.workerWg.Done()
	tr := nn.NewTrainer(t.model)
	for s := range t.jobs {
		if t.stopping.Load() {
			// The run is over; nobody will consume this delta. Release the
			// snapshot and signal completion without training.
			s.snap.release(t.pool)
			close(s.done)
			continue
		}
		seqs := t.corpus.ClientExamples(s.client.ID, s.client.Dialect,
			s.client.DialectWeight, s.client.NumExamples)
		clientRng := t.sessRoot.SplitAt("local-update", uint64(s.id))
		s.delta = t.pool.Get()
		tr.LocalUpdateInto(s.delta, s.snap.data, seqs, t.clientCfg, clientRng)
		if t.stage.DP != nil {
			// DP sensitivity bound: every update is clipped before it can
			// influence the aggregate. ClipUpdate is stateless, so clipping
			// on the worker is safe and keeps the O(model) work off the
			// event loop.
			t.stage.DP.ClipUpdate(s.delta)
		}
		s.snap.release(t.pool)
		close(s.done)
	}
}

// shardConsumer applies adds for one shard in FIFO order. Because the event
// loop enqueues adds in session-finish order and each shard has exactly one
// consumer, the floating-point accumulation order within a shard is
// deterministic regardless of worker count.
func (t *trainEngine) shardConsumer(i int) {
	defer t.shardWg.Done()
	for req := range t.shardQ[i] {
		if req.flush != nil {
			req.flush.Done()
			continue
		}
		<-req.s.done
		if req.s.delta == nil {
			continue // skipped during shutdown; nothing to reclaim
		}
		t.stage.Buf.Add(req.s.delta, req.w, i)
		t.pool.Put(req.s.delta)
	}
}
