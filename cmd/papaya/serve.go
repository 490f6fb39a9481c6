package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/secagg"
	"repro/internal/server"
	"repro/internal/tee"
)

// runServe starts a PAPAYA control plane as one OS process serving real
// HTTP: a singleton Coordinator plus N Aggregators and M Selectors on one
// listen address, with one FL task created and ready for clients. Remote
// `papaya agent` processes can join the aggregator fleet, and `papaya
// loadtest` can drive sessions.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "TCP listen address")
	advertise := fs.String("advertise", "", "public base URL peers should use (default http://<listen> or tcp://<listen>)")
	fabricKind := fs.String("fabric", "http", "transport backend: http (sessions over stdlib net/http) or tcp (sessions over raw TCP)")
	nAggs := fs.Int("aggregators", 2, "in-process aggregators (0 = wait for remote agents)")
	nSels := fs.Int("selectors", 2, "in-process selectors")
	taskID := fs.String("task", "default", "task ID to create")
	mode := fs.String("mode", "async", "aggregation mode: async|sync")
	numParams := fs.Int("params", 1024, "model size (elements); initial model is zeros")
	concurrency := fs.Int("concurrency", 64, "max clients training simultaneously (Appendix E.1)")
	goal := fs.Int("goal", 8, "aggregation goal K")
	staleness := fs.Int("staleness", 0, "max staleness (async; 0 = unlimited)")
	chunk := fs.Int("chunk", 4096, "upload chunk size (elements)")
	useSecAgg := fs.Bool("secagg", false, "enable Asynchronous SecAgg on uploads (Section 5)")
	dpClip := fs.Float64("dp-clip", 0, "central DP: L2 clip bound on every client update (0 disables DP)")
	dpNoise := fs.Float64("dp-noise", 1.0, "central DP: Gaussian noise multiplier z (active when -dp-clip > 0)")
	dpDelta := fs.Float64("dp-delta", 1e-6, "central DP: target delta for epsilon accounting")
	dpBudget := fs.Float64("dp-epsilon-budget", 0, "central DP: refuse releases once one more would exceed this epsilon (0 = unlimited)")
	dpLocal := fs.Bool("dp-local", false, "local DP: clients also noise their own deltas on-device")
	dpSeed := fs.Uint64("dp-seed", 0, "deterministic DP noise seed, tests only (0 = crypto/rand, the safe default)")
	compressName := fs.String("compress", "", "wire compression codec preferred for uploads: none|quantized|quantized16|streamed|flate (negotiated per client at report time)")
	heartbeat := fs.Duration("heartbeat", 250*time.Millisecond, "aggregator heartbeat cadence")
	obsListen := fs.String("obs-listen", "", "observability listen address (H:P): /metrics, /trace, /debug/vars, /debug/pprof; empty disables")
	_ = fs.Parse(args)

	if *compressName != "" && *compressName != "none" {
		if _, err := compress.ByName(*compressName); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	var algo core.Algorithm
	switch *mode {
	case "async":
		algo = core.Async
	case "sync":
		algo = core.Sync
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (want async|sync)\n", *mode)
		os.Exit(2)
	}

	fabric, err := newFabric(fabricSpec{
		kind: *fabricKind, listen: *listen, advertise: *advertise, seed: 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	timings := server.DefaultTimings()
	timings.Heartbeat = *heartbeat
	timings.MapRefresh = 2 * *heartbeat
	timings.FailureDeadline = 8 * *heartbeat

	coord := server.NewCoordinator("coordinator", fabric, timings, 1, false)
	var aggs []*server.Aggregator
	for i := 0; i < *nAggs; i++ {
		name := fmt.Sprintf("agg-%d", i)
		aggs = append(aggs, server.NewAggregator(name, fabric, "coordinator", timings))
		if _, err := fabric.Call("serve", "coordinator", "register-aggregator", name); err != nil {
			fmt.Fprintf(os.Stderr, "registering %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	var sels []*server.Selector
	for i := 0; i < *nSels; i++ {
		sels = append(sels, server.NewSelector(fmt.Sprintf("sel-%d", i), fabric, "coordinator", timings))
	}

	spec := server.TaskSpec{
		ID:              *taskID,
		Mode:            algo,
		NumParams:       *numParams,
		Concurrency:     *concurrency,
		AggregationGoal: *goal,
		MaxStaleness:    *staleness,
		UploadChunkSize: *chunk,
		InitParams:      make([]float32, *numParams),
		Compress:        *compressName,
	}
	if *dpClip > 0 {
		spec.DP = &dp.Config{
			Clip:            *dpClip,
			NoiseMultiplier: *dpNoise,
			Delta:           *dpDelta,
			Seed:            *dpSeed,
			EpsilonBudget:   *dpBudget,
			Local:           *dpLocal,
		}
	}
	if *useSecAgg {
		dep, err := secagg.NewDeployment(secagg.Params{
			VecLen: *numParams + 1, Threshold: *goal, Scale: 1 << 16,
		}, []byte("papaya-tsa-binary-v1"), tee.DefaultCostModel(), rand.Reader)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spec.SecAgg = dep
	}
	obsShutdown := startObs("serve", *obsListen, fabric, *fabricKind)
	defer obsShutdown()

	// Print the bound address before waiting for remote agents: a -listen
	// :0 deployment (the fleet harness) must learn the URL to start the
	// very agents the create-task loop below is waiting for.
	fmt.Printf("papaya serve: listening on %s\n", fabric.BaseURL())

	// With -aggregators 0 the fleet is remote: task creation waits until the
	// first `papaya agent` registers (placement needs a live aggregator).
	// App errors cross the wire as text, so match the sentinel's message.
	for {
		_, err := fabric.Call("serve", "coordinator", "create-task", spec)
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), server.ErrNoLiveAggregators.Error()) {
			fmt.Fprintf(os.Stderr, "creating task: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("papaya serve: waiting for an aggregator to join...")
		time.Sleep(500 * time.Millisecond)
	}

	fmt.Printf("papaya serve: nodes %v\n", fabric.Nodes())
	fmt.Printf("papaya serve: task %q mode=%s params=%d concurrency=%d goal=%d secagg=%v compress=%q\n",
		*taskID, algo, *numParams, *concurrency, *goal, *useSecAgg, *compressName)
	if spec.DP != nil {
		fmt.Printf("papaya serve: dp clip=%g noise=%g delta=%g epsilon-budget=%g local=%v\n",
			spec.DP.Clip, spec.DP.NoiseMultiplier, spec.DP.Delta, spec.DP.EpsilonBudget, spec.DP.Local)
	}
	fmt.Println("papaya serve: ready")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig

	for _, s := range sels {
		s.Stop()
	}
	for _, a := range aggs {
		a.Stop()
	}
	coord.Stop()
	_ = fabric.Close()
	fmt.Println("papaya serve: clean shutdown")
}
