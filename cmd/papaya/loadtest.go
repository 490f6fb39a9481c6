package main

import (
	"crypto/rand"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/compress"
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
	Scenario string               `json:"scenario,omitempty"`
	Tiers    []scenario.TierStats `json:"tiers,omitempty"`
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

// constantDelta skips real SGD: the loadtest and the fleet harness
// measure the control plane and wire path, not local training, so every
// session "trains" a constant small update sized from the downloaded
// model, which lets one executor serve any task shape.
type constantDelta struct{}

func (constantDelta) Train(params []float32, examples [][]int) ([]float32, float64) {
	out := make([]float32, len(params))
	for i := range out {
		out[i] = 0.001
	}
	return out, 1.0
}

// loadDevice builds one load-generator client: always eligible, holding
// one example, training a constant delta, with the selector list rotated
// by its ID so the fleet's first choices spread across the selector tier.
func loadDevice(id int64, fab fabricConn, selectors []string) *client.Runtime {
	store := client.NewExampleStore(0, 0)
	store.Add([]int{1, 2, 3}, time.Now())
	k := int(id % int64(len(selectors)))
	return &client.Runtime{
		ClientID:  id,
		Store:     store,
		Exec:      constantDelta{},
		Net:       fab,
		Selectors: append(append([]string(nil), selectors[k:]...), selectors[:k]...),
		State:     client.DeviceState{Idle: true, Charging: true, Unmetered: true},
		Random:    rand.Reader,
	}
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

	// With -train, clients run real local SGD on their own shard of a
	// synthetic corpus, so deltas — and compression ratios — are measured
	// on non-constant updates. A scenario profile supplies its own corpus,
	// non-IID partition and training config (FedProx's client half).
	var model *nn.Bilinear
	var examples func(id int64) [][]int
	sgd := nn.DefaultSGDConfig()
	if *train {
		model = nn.NewBilinear(*vocab, *dim)
		if model.NumParams() != numParams {
			fmt.Fprintf(os.Stderr,
				"papaya loadtest: -train model (vocab=%d dim=%d) has %d params but task %q has %d; start the server with -params %d\n",
				*vocab, *dim, model.NumParams(), *task, numParams, model.NumParams())
			os.Exit(2)
		}
		if spec != nil {
			corpus := spec.Corpus()
			examples = func(id int64) [][]int { return spec.Examples(corpus, id) }
			sgd = spec.SGDConfig()
		} else {
			corpus := lmdata.NewCorpus(lmdata.Config{
				VocabSize: *vocab, NumDialects: 4, Seed: 11,
				SeqLenMin: 5, SeqLenMax: 9, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
			})
			examples = func(id int64) [][]int { return corpus.ClientExamples(id, int(id)%4, 0.5, 8) }
		}
	}
	devices := make([]*client.Runtime, *clients)
	for c := range devices {
		// Scenario clients are 1-based so the profile's tier and dialect
		// mapping applies; the classic loadtest keeps its 1000+ IDs.
		id := int64(1000 + c)
		if spec != nil {
			id = int64(c + 1)
		}
		dev := loadDevice(id, fabric, selectors)
		dev.Compress = offered
		if *train {
			dev.Store = client.NewExampleStore(0, 0)
			for _, seq := range examples(id) {
				dev.Store.Add(seq, time.Now())
			}
			dev.Exec = &client.SGDExecutor{Model: model, Config: sgd, Rng: rng.New(uint64(id))}
		}
		devices[c] = dev
	}

	// A classic run drives the fleet to the upload target; a scenario run
	// gives each client the profile's attempt budget and pre-drawn
	// per-attempt plans (availability window, dropout stage, simulated
	// compute). Either stops at the timeout, and as soon as any client sees
	// "budget_exhausted": a DP task that spent its budget is complete by
	// definition, so the fleet stops instead of hammering it.
	driver := &client.Driver{Devices: devices, Deadline: time.Now().Add(*timeout)}
	driver.Observe = func(a client.Attempt) {
		if a.Result != nil && a.Result.Reason == "budget_exhausted" {
			driver.Stop()
		}
	}
	if spec != nil {
		driver.Attempts, driver.Plan = spec.Attempts, spec.PlanFor
	} else {
		driver.Target = int64(*uploads)
	}
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	tallies := driver.Run()
	wall := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	var total client.Tally
	for i := range tallies {
		total.Add(&tallies[i])
	}
	final, err := taskInfo(fabric, selectors[0], *task)
	if err != nil {
		fmt.Fprintf(os.Stderr, "papaya loadtest: final task query: %v\n", err)
	}
	stats := fabric.Stats()
	ratio := 0.0
	if total.UploadWireBytes > 0 {
		ratio = float64(total.UploadRawBytes) / float64(total.UploadWireBytes)
	}
	allocsPerUpload := 0.0
	if total.Completed > 0 {
		allocsPerUpload = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(total.Completed)
	}
	run := loadRun{
		Label:                *label,
		Commit:               gitCommit(),
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		Server:               *serverURL,
		Fabric:               fabricKindForURL(*serverURL),
		Compress:             total.Compress,
		Train:                *train,
		Task:                 *task,
		Mode:                 string(info.Mode),
		NumParams:            numParams,
		Clients:              *clients,
		TargetUploads:        *uploads,
		CompletedUploads:     total.Completed,
		RejectedCheckins:     total.Rejected,
		RejectedBySelector:   total.Rejected - total.RejectedAtCapacity,
		RejectedByAggregator: total.RejectedAtCapacity,
		AbortedSessions:      total.Aborted,
		TransportErrors:      total.Errors,
		WallSeconds:          wall.Seconds(),
		UploadsPerSecond:     float64(total.Completed) / wall.Seconds(),
		P50Millis:            total.PercentileMillis(0.50),
		P99Millis:            total.PercentileMillis(0.99),
		Calls:                stats.Calls,
		BytesSent:            stats.BytesSent,
		BytesReceived:        stats.BytesReceived,
		AcksElided:           stats.AcksElided,
		FramesCoalesced:      stats.FramesCoalesced,
		BytesRaw:             total.UploadRawBytes,
		BytesWire:            total.UploadWireBytes,
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
		run.TargetUploads = 0 // the attempt budget, not -uploads, bounded this run
		run.Tiers = spec.PerTier(tallies)
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
			fmt.Fprintf(os.Stderr, "papaya loadtest: %s\n", ts)
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
