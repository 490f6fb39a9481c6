package main

import (
	"crypto/rand"
	"encoding/json"
	"flag"
	"fmt"
	mrand "math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/compress"
	"repro/internal/fedopt"
	"repro/internal/lmdata"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/server"
)

// loadReport is the JSON document `papaya loadtest` writes: measured
// control-plane throughput against a live server. Repeated runs against
// the same -o file append, so one CI artifact records e.g. both Sync and
// Async mode measurements.
type loadReport struct {
	CreatedUnix int64     `json:"created_unix"`
	Runs        []loadRun `json:"runs"`
}

// loadRun is one loadtest execution. Commit and GOMAXPROCS attribute each
// entry to a build and host shape, so the perf trajectory in a report that
// accumulates across machines stays interpretable; the bytesRaw/bytesWire
// pair meters the upload path before and after wire compression.
type loadRun struct {
	Label            string `json:"label,omitempty"`
	Commit           string `json:"commit,omitempty"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	Server           string `json:"server"`
	Fabric           string `json:"fabric,omitempty"`
	Compress         string `json:"compress,omitempty"`
	Train            bool   `json:"train,omitempty"`
	Task             string `json:"task"`
	Mode             string `json:"mode"`
	NumParams        int    `json:"num_params"`
	Clients          int    `json:"clients"`
	TargetUploads    int    `json:"target_uploads"`
	CompletedUploads int64  `json:"completed_uploads"`
	RejectedCheckins int64  `json:"rejected_checkins"`
	// RejectedBySelector/RejectedByAggregator split the rejections by the
	// control-plane tier that issued them: a selector with no demand
	// ("no task with demand") versus an aggregator at its concurrency
	// ceiling ("task at max concurrency").
	RejectedBySelector   int64   `json:"rejected_by_selector,omitempty"`
	RejectedByAggregator int64   `json:"rejected_by_aggregator,omitempty"`
	AbortedSessions      int64   `json:"aborted_sessions"`
	TransportErrors      int64   `json:"transport_errors"`
	WallSeconds          float64 `json:"wall_seconds"`
	UploadsPerSecond     float64 `json:"uploads_per_second"`
	P50Millis            float64 `json:"p50_session_millis"`
	P99Millis            float64 `json:"p99_session_millis"`
	Calls                uint64  `json:"rpc_calls"`
	BytesSent            uint64  `json:"bytes_sent"`
	BytesReceived        uint64  `json:"bytes_received"`
	// AcksElided counts calls whose acknowledgement never crossed the wire;
	// FramesCoalesced counts stream frames that shipped inside a multi-frame
	// writev batch.
	AcksElided       uint64  `json:"acks_elided,omitempty"`
	FramesCoalesced  uint64  `json:"frames_coalesced,omitempty"`
	BytesRaw         int64   `json:"bytes_raw_upload"`
	BytesWire        int64   `json:"bytes_wire_upload"`
	CompressionRatio float64 `json:"compression_ratio"`
	// AllocsPerUpload and the GC columns meter this loadtest process's
	// allocation pressure per completed session (heap allocations from
	// runtime.MemStats.Mallocs), so the pooled-vector work is measurable
	// run over run rather than anecdotal. They cover the client side of
	// the wire (encode, decode, session bookkeeping); the serving side's
	// pooling shows up in uploads/sec.
	AllocsPerUpload float64 `json:"allocs_per_upload"`
	GCPauseMillis   float64 `json:"gc_pause_total_ms"`
	NumGC           uint32  `json:"num_gc"`
	FinalVersion    int     `json:"final_server_version"`
	FinalUpdates    int64   `json:"final_server_updates"`
	// DP columns appear when the task runs under central differential
	// privacy: the cumulative privacy spend the final task-info reported,
	// the release count it covers, and whether the epsilon budget capped
	// the run ("budget_exhausted").
	DPEnabled   bool    `json:"dp_enabled,omitempty"`
	DPEpsilon   float64 `json:"dp_epsilon,omitempty"`
	DPDelta     float64 `json:"dp_delta,omitempty"`
	DPReleases  int     `json:"dp_releases,omitempty"`
	DPBudget    float64 `json:"dp_epsilon_budget,omitempty"`
	DPExhausted bool    `json:"dp_budget_exhausted,omitempty"`
	// Scenario and Tiers appear when -scenario shapes the fleet: the
	// profile name and per-tier outcome counts with latency percentiles,
	// so a tiered run's tail behaviour is visible per device class rather
	// than smeared into the fleet-wide p99.
	Scenario string    `json:"scenario,omitempty"`
	Tiers    []tierCol `json:"tiers,omitempty"`
}

// tierCol is one device tier's column set in a scenario-shaped loadtest.
type tierCol struct {
	Tier        string  `json:"tier"`
	Clients     int     `json:"clients"`
	Completed   int64   `json:"completed"`
	Dropped     int64   `json:"dropped"`
	Rejected    int64   `json:"rejected"`
	Unavailable int64   `json:"unavailable"`
	P50Millis   float64 `json:"p50_ms"`
	P99Millis   float64 `json:"p99_ms"`
}

// pacedExec injects a scenario tier's simulated device compute between
// download and training, mirroring internal/scenario's pacing so slow
// tiers hold live sessions longer (and accumulate real staleness).
type pacedExec struct {
	inner client.Executor
	delay time.Duration
}

func (p *pacedExec) Train(params []float32, examples [][]int) ([]float32, float64) {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	return p.inner.Train(params, examples)
}

// gitCommit best-efforts the build's VCS revision from the binary's build
// info ("unknown" for non-VCS builds), so committed bench entries are
// attributable without shelling out to git.
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				if len(s.Value) > 12 {
					return s.Value[:12]
				}
				return s.Value
			}
		}
	}
	return "unknown"
}

// fixedDeltaExecutor skips real SGD: the loadtest measures the control
// plane and wire path, not local training, so every session "trains" a
// constant update of the right dimensionality.
type fixedDeltaExecutor struct{ delta []float32 }

func (f fixedDeltaExecutor) Train(params []float32, examples [][]int) ([]float32, float64) {
	out := make([]float32, len(f.delta))
	copy(out, f.delta)
	return out, 1.0
}

// runLoadtest drives K concurrent simulated clients through full
// participation sessions — check-in, download, report, chunked upload
// (Section 6.1's four stages) — against a live `papaya serve`/`papaya
// agent` deployment, until the upload target is met, and reports
// uploads/sec, session latency percentiles, and bytes moved.
func runLoadtest(args []string) {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	serverURL := fs.String("server", "http://127.0.0.1:7070", "base URL of the papaya serve process (a tcp:// URL selects the raw-TCP fabric)")
	task := fs.String("task", "default", "task ID to drive")
	clients := fs.Int("clients", 16, "concurrent simulated clients")
	uploads := fs.Int("uploads", 200, "successful upload target (run ends when reached)")
	timeout := fs.Duration("timeout", 2*time.Minute, "abort if the target is not reached in time")
	compressFlag := fs.String("compress", "", "upload codecs clients offer: empty = all registered, \"none\" = opt out, or one codec name (server picks per task)")
	train := fs.Bool("train", false, "run real local SGD (internal/nn log-bilinear) instead of a fixed delta, so deltas — and compression ratios — are realistic")
	vocab := fs.Int("vocab", 16, "with -train: model vocabulary (params = 2*vocab*dim + vocab, must equal the task's -params)")
	dim := fs.Int("dim", 4, "with -train: embedding dimension")
	out := fs.String("o", "-", "output path (- for stdout); existing reports are appended to")
	label := fs.String("label", "", "free-form run label recorded in the report")
	scenarioPath := fs.String("scenario", "", "scenario profile JSON (examples/scenarios/): shape the fleet into device tiers — slowdown, dropout, availability, non-IID dialect partition — and report per-tier latency columns; overrides -clients/-uploads with the profile's fleet and attempt budget")
	obsListen := fs.String("obs-listen", "", "observability listen address (H:P): /metrics, /trace (client-side spans), /debug/vars, /debug/pprof; empty disables")
	_ = fs.Parse(args)

	var spec *scenario.Spec
	if *scenarioPath != "" {
		s, err := scenario.LoadFile(*scenarioPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "papaya loadtest:", err)
			os.Exit(1)
		}
		spec = &s
		*clients = s.NumClients()
		if *train {
			*vocab, *dim = s.Model.Vocab, s.Model.Dim
		}
	}

	var offered []string
	switch *compressFlag {
	case "":
		// nil: Runtime offers every registered codec.
	case "none":
		offered = []string{"none"}
	default:
		if _, err := compress.ByName(*compressFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		offered = []string{*compressFlag}
	}

	fabric, err := newFabric(fabricSpec{
		kind: fabricKindForURL(*serverURL), listen: "127.0.0.1:0",
		compress: *compressFlag, seed: 2,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer fabric.Close()

	obsShutdown := startObs("loadtest", *obsListen, fabric, fabricKindForURL(*serverURL))
	defer obsShutdown()

	// Discover the server's selectors; retry briefly so CI can start serve
	// and loadtest back to back. Selectors hosted in the serve process
	// appear in its own node list; a standalone selector tier (`papaya
	// selector`) is reached through the routes the coordinator gossips.
	var selectors []string
	deadline := time.Now().Add(10 * time.Second)
	for {
		nodes, err := fabric.Discover(*serverURL)
		if err == nil {
			seen := map[string]bool{}
			for _, n := range nodes {
				if strings.HasPrefix(n, "sel-") && !seen[n] {
					seen[n] = true
					selectors = append(selectors, n)
				}
			}
			for n := range fabric.Routes() {
				if strings.HasPrefix(n, "sel-") && !seen[n] {
					seen[n] = true
					selectors = append(selectors, n)
				}
			}
			if len(selectors) > 0 {
				break
			}
			err = fmt.Errorf("no selector nodes among %v", nodes)
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "papaya loadtest: discovering selectors at %s: %v\n", *serverURL, err)
			os.Exit(1)
		}
		time.Sleep(250 * time.Millisecond)
	}

	info, err := taskInfo(fabric, selectors[0], *task)
	if err != nil {
		fmt.Fprintf(os.Stderr, "papaya loadtest: querying task %q: %v\n", *task, err)
		os.Exit(1)
	}
	numParams := len(info.Params)
	fmt.Fprintf(os.Stderr, "papaya loadtest: task %q mode=%s params=%d, %d clients, target %d uploads\n",
		*task, info.Mode, numParams, *clients, *uploads)

	var model *nn.Bilinear
	var corpus *lmdata.Corpus
	if *train {
		model = nn.NewBilinear(*vocab, *dim)
		if model.NumParams() != numParams {
			fmt.Fprintf(os.Stderr,
				"papaya loadtest: -train model (vocab=%d dim=%d) has %d params but task %q has %d; start the server with -params %d\n",
				*vocab, *dim, model.NumParams(), *task, numParams, model.NumParams())
			os.Exit(2)
		}
		corpus = lmdata.NewCorpus(lmdata.Config{
			VocabSize: *vocab, NumDialects: 4, Seed: 11,
			SeqLenMin: 5, SeqLenMax: 9, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
		})
	}

	delta := make([]float32, numParams)
	for i := range delta {
		delta[i] = 0.001
	}

	var (
		completed, rejected, aborted, terrors atomic.Int64
		rejectedSel, rejectedAgg              atomic.Int64
		bytesRaw, bytesWire                   atomic.Int64
		latMu                                 sync.Mutex
		latencies                             []time.Duration
		negotiatedMu                          sync.Mutex
		negotiated                            string
		// budgetStop flips when any client sees "budget_exhausted": the
		// task is complete by definition, so the fleet stops instead of
		// hammering a capped task until the timeout.
		budgetStop atomic.Bool
	)
	// classifyRejection splits a rejected check-in by the control-plane
	// tier that issued it: aggregators reject at their concurrency ceiling,
	// selectors when no task has demand (or no live aggregator owns one).
	classifyRejection := func(reason string) {
		if strings.Contains(reason, "concurrency") {
			rejectedAgg.Add(1)
		} else {
			rejectedSel.Add(1)
		}
	}
	// Per-tier accounting for -scenario runs.
	var tierMu sync.Mutex
	var tierStats []tierCol
	var tierLats [][]time.Duration
	var proxMu float64
	if spec != nil {
		for _, tr := range spec.Tiers {
			tierStats = append(tierStats, tierCol{Tier: tr.Name, Clients: tr.Clients})
		}
		tierLats = make([][]time.Duration, len(spec.Tiers))
		// FedProx is two-sided: when the profile selects it, clients train
		// with the proximal pull matching the server-side damping.
		if rule, err := fedopt.AggregationByName(spec.Aggregation, spec.AggParam); err == nil {
			if prox, ok := rule.(fedopt.FedProx); ok {
				proxMu = prox.Mu
			}
		}
	}
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	stopAt := time.Now().Add(*timeout)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		// Scenario clients are 1-based so the profile's tier and dialect
		// mapping applies; the classic loadtest keeps its 1000+ IDs.
		cid := int64(1000 + c)
		if spec != nil {
			cid = int64(c + 1)
		}
		go func(id int64) {
			defer wg.Done()
			// Per-client jittered exponential backoff for rejected
			// check-ins: without it a sync-mode fleet re-checks in within
			// the same round and is rejected in lockstep (the committed
			// sync run saw 1131 rejections for 208 uploads). Jitter
			// de-synchronizes the retries; backoff caps the storm.
			rnd := mrand.New(mrand.NewSource(id))
			const minBackoff, maxBackoff = 5 * time.Millisecond, 200 * time.Millisecond
			backoff := minBackoff
			// hint is the server's Retry-After-style back-off from a
			// rejected check-in (the aggregator's session-close cadence);
			// the client never sleeps less than the server asked, while
			// its own jittered exponential schedule still de-synchronizes
			// the fleet and caps the storm.
			sleepJittered := func(hint time.Duration) {
				d := backoff/2 + time.Duration(rnd.Int63n(int64(backoff)))
				if hint > d {
					d = hint
				}
				if until := time.Until(stopAt); d > until {
					d = until
				}
				if d > 0 {
					time.Sleep(d)
				}
				if backoff < maxBackoff {
					backoff *= 2
				}
			}
			store := client.NewExampleStore(0, 0)
			var exec client.Executor = fixedDeltaExecutor{delta: delta}
			if *train {
				// Realistic deltas: a per-client dialect shard of the
				// synthetic corpus and real local SGD, so the compression
				// ratio is measured on non-constant updates. A scenario
				// profile supplies its own non-IID partition.
				dialect, weight, n := int(id)%corpus.Config().NumDialects, 0.5, 8
				if spec != nil {
					dialect, weight, n = spec.DialectOf(id), spec.Data.DialectWeight, spec.Data.ExamplesPerClient
				}
				cfg := nn.DefaultSGDConfig()
				cfg.ProxMu = proxMu
				for _, seq := range corpus.ClientExamples(id, dialect, weight, n) {
					store.Add(seq, time.Now())
				}
				exec = &client.SGDExecutor{Model: model, Config: cfg, Rng: rng.New(uint64(id))}
			} else {
				store.Add([]int{1, 2, 3}, time.Now())
			}
			var paced *pacedExec
			if spec != nil {
				paced = &pacedExec{inner: exec}
				exec = paced
			}
			// Spread initial selector choice across the fleet.
			sels := append([]string(nil), selectors[id%int64(len(selectors)):]...)
			sels = append(sels, selectors[:id%int64(len(selectors))]...)
			dev := &client.Runtime{
				ClientID:  id,
				Store:     store,
				Exec:      exec,
				Net:       fabric,
				Selectors: sels,
				State:     client.DeviceState{Idle: true, Charging: true, Unmetered: true},
				Random:    rand.Reader,
				Compress:  offered,
			}
			if spec != nil {
				// Scenario-shaped fleet: each client runs its attempt
				// budget with the profile's pre-drawn per-attempt plan —
				// availability window, dropout stage, simulated compute.
				tier := spec.TierOf(id)
				for attempt := 0; attempt < spec.Attempts && time.Now().Before(stopAt); attempt++ {
					plan := spec.PlanFor(id, attempt)
					if !plan.Available {
						tierMu.Lock()
						tierStats[tier].Unavailable++
						tierMu.Unlock()
						continue
					}
					paced.delay = plan.Delay
					dev.Dropout = func() (client.DropStage, bool) { return plan.Drop, plan.Vanish }
					sessStart := time.Now()
					res, err := dev.RunOnce(sessStart)
					if err != nil {
						terrors.Add(1)
						sleepJittered(0)
						continue
					}
					switch res.Outcome {
					case client.Completed:
						backoff = minBackoff
						completed.Add(1)
						bytesRaw.Add(res.UploadRawBytes)
						bytesWire.Add(res.UploadWireBytes)
						if res.Compress != "" {
							negotiatedMu.Lock()
							negotiated = res.Compress
							negotiatedMu.Unlock()
						}
						lat := time.Since(sessStart)
						latMu.Lock()
						latencies = append(latencies, lat)
						latMu.Unlock()
						tierMu.Lock()
						tierStats[tier].Completed++
						tierLats[tier] = append(tierLats[tier], lat)
						tierMu.Unlock()
					case client.Dropped:
						tierMu.Lock()
						tierStats[tier].Dropped++
						tierMu.Unlock()
					case client.Rejected:
						rejected.Add(1)
						classifyRejection(res.Reason)
						tierMu.Lock()
						tierStats[tier].Rejected++
						tierMu.Unlock()
						sleepJittered(res.RetryAfter)
					case client.Aborted:
						backoff = minBackoff
						aborted.Add(1)
					}
				}
				return
			}
			for completed.Load() < int64(*uploads) && time.Now().Before(stopAt) && !budgetStop.Load() {
				sessStart := time.Now()
				res, err := dev.RunOnce(sessStart)
				if err != nil {
					terrors.Add(1)
					sleepJittered(0)
					continue
				}
				if res.Reason == "budget_exhausted" {
					budgetStop.Store(true)
				}
				switch res.Outcome {
				case client.Completed:
					backoff = minBackoff
					completed.Add(1)
					bytesRaw.Add(res.UploadRawBytes)
					bytesWire.Add(res.UploadWireBytes)
					if res.Compress != "" {
						negotiatedMu.Lock()
						negotiated = res.Compress
						negotiatedMu.Unlock()
					}
					latMu.Lock()
					latencies = append(latencies, time.Since(sessStart))
					latMu.Unlock()
				case client.Rejected:
					rejected.Add(1)
					classifyRejection(res.Reason)
					sleepJittered(res.RetryAfter)
				case client.Aborted:
					backoff = minBackoff
					aborted.Add(1)
				}
			}
		}(cid)
	}
	wg.Wait()
	wall := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	final, err := taskInfo(fabric, selectors[0], *task)
	if err != nil {
		fmt.Fprintf(os.Stderr, "papaya loadtest: final task query: %v\n", err)
	}
	stats := fabric.Stats()
	ratio := 0.0
	if bytesWire.Load() > 0 {
		ratio = float64(bytesRaw.Load()) / float64(bytesWire.Load())
	}
	allocsPerUpload := 0.0
	if n := completed.Load(); n > 0 {
		allocsPerUpload = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(n)
	}
	run := loadRun{
		Label:                *label,
		Commit:               gitCommit(),
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		Server:               *serverURL,
		Fabric:               fabricKindForURL(*serverURL),
		Compress:             negotiated,
		Train:                *train,
		Task:                 *task,
		Mode:                 string(info.Mode),
		NumParams:            numParams,
		Clients:              *clients,
		TargetUploads:        *uploads,
		CompletedUploads:     completed.Load(),
		RejectedCheckins:     rejected.Load(),
		RejectedBySelector:   rejectedSel.Load(),
		RejectedByAggregator: rejectedAgg.Load(),
		AbortedSessions:      aborted.Load(),
		TransportErrors:      terrors.Load(),
		WallSeconds:          wall.Seconds(),
		UploadsPerSecond:     float64(completed.Load()) / wall.Seconds(),
		P50Millis:            percentileMillis(latencies, 0.50),
		P99Millis:            percentileMillis(latencies, 0.99),
		Calls:                stats.Calls,
		BytesSent:            stats.BytesSent,
		BytesReceived:        stats.BytesReceived,
		AcksElided:           stats.AcksElided,
		FramesCoalesced:      stats.FramesCoalesced,
		BytesRaw:             bytesRaw.Load(),
		BytesWire:            bytesWire.Load(),
		CompressionRatio:     ratio,
		AllocsPerUpload:      allocsPerUpload,
		GCPauseMillis:        float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs) / 1e6,
		NumGC:                msAfter.NumGC - msBefore.NumGC,
		FinalVersion:         final.Version,
		FinalUpdates:         final.Updates,
		DPEnabled:            final.DPEnabled,
		DPEpsilon:            final.DPEpsilon,
		DPDelta:              final.DPDelta,
		DPReleases:           final.DPReleases,
		DPBudget:             final.DPBudget,
		DPExhausted:          final.DPExhausted,
	}
	if spec != nil {
		run.Scenario = spec.Name
		for i := range tierStats {
			tierStats[i].P50Millis = percentileMillis(tierLats[i], 0.50)
			tierStats[i].P99Millis = percentileMillis(tierLats[i], 0.99)
		}
		run.Tiers = tierStats
		run.TargetUploads = 0 // the attempt budget, not -uploads, bounded this run
	}

	if err := writeLoadReport(*out, run); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	compressNote := "off"
	if run.Compress != "" {
		compressNote = fmt.Sprintf("%s %.2fx (%.2f -> %.2f MB)", run.Compress,
			run.CompressionRatio, float64(run.BytesRaw)/1e6, float64(run.BytesWire)/1e6)
	}
	fmt.Fprintf(os.Stderr,
		"papaya loadtest: %d uploads in %.1fs (%.1f/s), p50 %.1fms p99 %.1fms, %d rejected, %d aborted, %.1f MB moved, compression %s\n",
		run.CompletedUploads, run.WallSeconds, run.UploadsPerSecond, run.P50Millis, run.P99Millis,
		run.RejectedCheckins, run.AbortedSessions,
		float64(run.BytesSent+run.BytesReceived)/1e6, compressNote)
	attempts := run.CompletedUploads + run.RejectedCheckins + run.AbortedSessions
	rejRate := 0.0
	if attempts > 0 {
		rejRate = 100 * float64(run.RejectedCheckins) / float64(attempts)
	}
	fmt.Fprintf(os.Stderr,
		"papaya loadtest: check-in rejection rate %.1f%% (%d rejected / %d attempts; selector tier %d, aggregator tier %d), %.0f allocs/upload, %d GCs (%.1f ms pause)\n",
		rejRate, run.RejectedCheckins, attempts, run.RejectedBySelector, run.RejectedByAggregator,
		run.AllocsPerUpload, run.NumGC, run.GCPauseMillis)
	fmt.Fprintf(os.Stderr,
		"papaya loadtest: acks elided: %d, frames coalesced: %d\n",
		run.AcksElided, run.FramesCoalesced)
	if run.DPEnabled {
		status := "within budget"
		if run.DPExhausted {
			status = "budget_exhausted"
		}
		fmt.Fprintf(os.Stderr,
			"papaya loadtest: dp epsilon=%.4f delta=%g releases=%d budget=%g status=%s\n",
			run.DPEpsilon, run.DPDelta, run.DPReleases, run.DPBudget, status)
	}

	if spec != nil {
		for _, ts := range run.Tiers {
			fmt.Fprintf(os.Stderr,
				"papaya loadtest: tier %-12s clients=%-3d completed=%-4d dropped=%-3d rejected=%-4d unavailable=%-3d p50=%.1fms p99=%.1fms\n",
				ts.Tier, ts.Clients, ts.Completed, ts.Dropped, ts.Rejected,
				ts.Unavailable, ts.P50Millis, ts.P99Millis)
		}
		// A scenario run is bounded by its attempt budget, not -uploads;
		// it fails only if the whole fleet made no progress.
		if run.CompletedUploads == 0 {
			fmt.Fprintln(os.Stderr, "papaya loadtest: FAIL: scenario fleet completed no uploads")
			os.Exit(1)
		}
		return
	}
	if run.CompletedUploads < int64(*uploads) {
		if run.DPExhausted {
			// A capped DP task completing with status "budget_exhausted"
			// is the graceful outcome, not a failure.
			fmt.Fprintf(os.Stderr, "papaya loadtest: stopped early after %d/%d uploads: dp budget_exhausted\n",
				run.CompletedUploads, *uploads)
			return
		}
		fmt.Fprintf(os.Stderr, "papaya loadtest: FAIL: reached %d/%d uploads before timeout\n",
			run.CompletedUploads, *uploads)
		os.Exit(1)
	}
}

// taskInfo queries a task through a selector route, like any client would.
func taskInfo(fabric fabricConn, selector, task string) (server.TaskInfo, error) {
	resp, err := fabric.Call("loadtest", selector, "route", server.RouteRequest{
		TaskID: task, Method: "task-info", Payload: task,
	})
	if err != nil {
		return server.TaskInfo{}, err
	}
	info, ok := resp.(server.TaskInfo)
	if !ok {
		return server.TaskInfo{}, fmt.Errorf("task-info returned %T", resp)
	}
	return info, nil
}

func percentileMillis(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// writeLoadReport appends the run to an existing report at path (or starts
// a fresh one), so multi-mode measurements accumulate in one document.
func writeLoadReport(path string, run loadRun) error {
	rep := loadReport{CreatedUnix: time.Now().Unix()}
	if path != "-" {
		if raw, err := os.ReadFile(path); err == nil {
			if json.Unmarshal(raw, &rep) != nil {
				// Unreadable prior report: start over rather than refuse.
				rep = loadReport{CreatedUnix: time.Now().Unix()}
			}
		}
	}
	rep.Runs = append(rep.Runs, run)
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
