// Command papaya drives the PAPAYA reproduction: it regenerates each of the
// paper's tables and figures, runs ad-hoc simulations, and demonstrates the
// asynchronous secure aggregation protocol end to end.
//
// Usage:
//
//	papaya list                        list reproducible experiments
//	papaya <id> [flags]                run one experiment (fig2..fig13, table1)
//	papaya all [flags]                 run every experiment in order
//	papaya sim [flags]                 run one training simulation
//	papaya secagg-demo                 narrated secure aggregation run
//	papaya serve [flags]               run the control plane over HTTP
//	papaya agent [flags]               run a remote aggregator joining a coordinator
//	papaya selector [flags]            run a standalone selector joining a coordinator
//	papaya fleet [flags]               spawn a multi-process fleet and measure failover
//	papaya loadtest [flags]            drive concurrent clients against a live server
//	papaya scenario [flags]            run a declarative fleet profile in process
//	papaya trace [flags]               stitch one session's spans across tier obs endpoints
//
// serve/agent/selector/loadtest make the Section 4 control plane deployable
// as real OS processes over the HTTP transport; fleet orchestrates all three
// tiers at once; see docs/DEPLOYMENT.md for the multi-process quickstart and
// the full flag reference.
//
// Flags for experiments:
//
//	-scale small|paper                 size preset (default paper)
//	-markdown                          emit GitHub-flavoured markdown
//
// Flags for sim:
//
//	-algo async|sync -concurrency N -goal K -overselect F -seed S
//	-updates N (server updates) -workers W -shards K
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/secagg"
	"repro/internal/tee"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	switch cmd {
	case "list":
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Brief)
		}
	case "all":
		runExperiments(args, experiments.Registry())
	case "sim":
		runSim(args)
	case "serve":
		runServe(args)
	case "agent":
		runAgent(args)
	case "selector":
		runSelector(args)
	case "fleet":
		runFleet(args)
	case "loadtest":
		runLoadtest(args)
	case "scenario":
		runScenario(args)
	case "trace":
		runTrace(args)
	case "secagg-demo":
		secaggDemo()
	case "help", "-h", "--help":
		usage()
	default:
		e, err := experiments.ByID(cmd)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			usage()
			os.Exit(2)
		}
		runExperiments(args, []experiments.Experiment{e})
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `papaya — reproduction of "PAPAYA: Practical, Private, and Scalable Federated Learning" (MLSys 2022)

  papaya list                      list reproducible experiments
  papaya <id> [-scale small|paper] [-markdown]
  papaya all  [-scale small|paper] [-markdown]
  papaya sim  [-algo async|sync] [-concurrency N] [-goal K] [-overselect F] [-updates N] [-seed S] [-scale small|paper] [-workers W] [-shards K]
  papaya serve [-listen H:P] [-fabric http|tcp] [-aggregators N] [-selectors M] [-task ID] [-mode async|sync] [-params N] [-concurrency N] [-goal K] [-secagg] [-dp-clip C] [-dp-noise Z] [-dp-epsilon-budget E] [-dp-local]
  papaya agent -coordinator URL [-listen H:P] [-name NAME]
  papaya selector -coordinator URL [-listen H:P] [-name NAME] [-refresh D]
  papaya fleet [-agents N] [-selectors M] [-clients K] [-uploads N] [-fabric http|tcp] [-kill-agent] [-kill-selector] [-o FILE]
  papaya loadtest [-server URL] [-clients K] [-uploads N] [-scenario FILE] [-o FILE]
  papaya scenario -file FILE [-fabric inmem|http|tcp] [-aggregation fedavg|fedbuff|fedprox] [-mode async|sync] [-workers W] [-o FILE]
  papaya trace -from URL[,URL...] [-trace ID]
  papaya secagg-demo

serve, agent, selector, and loadtest all accept -obs-listen H:P to serve
/metrics (Prometheus text), /trace (span ring JSON), /debug/vars, and
/debug/pprof; see docs/DEPLOYMENT.md "Observability".`)
}

func scaleByName(name string) experiments.Scale {
	switch name {
	case "small":
		return experiments.ScaleSmall()
	case "paper":
		return experiments.ScalePaper()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small|paper)\n", name)
		os.Exit(2)
		panic("unreachable")
	}
}

func runExperiments(args []string, list []experiments.Experiment) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	scaleName := fs.String("scale", "paper", "size preset: small|paper")
	markdown := fs.Bool("markdown", false, "emit markdown")
	_ = fs.Parse(args)
	scale := scaleByName(*scaleName)

	for _, e := range list {
		start := time.Now()
		table := e.Run(scale)
		if *markdown {
			fmt.Println(table.Markdown())
		} else {
			fmt.Println(table.String())
		}
		fmt.Printf("[%s completed in %.1fs at scale %q]\n\n", e.ID,
			time.Since(start).Seconds(), scale.Name)
	}
}

func runSim(args []string) {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	algo := fs.String("algo", "async", "async|sync")
	concurrency := fs.Int("concurrency", 1300, "clients training in parallel")
	goal := fs.Int("goal", 100, "aggregation goal K (async; 0 derives sync goal)")
	overselect := fs.Float64("overselect", 0.3, "sync over-selection fraction")
	updates := fs.Int("updates", 100, "server updates to run")
	seed := fs.Uint64("seed", 1, "run seed")
	scaleName := fs.String("scale", "paper", "workload preset: small|paper")
	workers := fs.Int("workers", 0, "training worker goroutines (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "aggregation shards (0 = default 8)")
	_ = fs.Parse(args)

	s := scaleByName(*scaleName)
	w := experiments.BuildWorld(s)
	cfg := core.Config{
		Concurrency:      *concurrency,
		Seed:             *seed,
		EvalSeqs:         w.Eval,
		EvalEvery:        5,
		MaxServerUpdates: *updates,
		MaxSimTime:       s.MaxSimTime,
		Workers:          *workers,
		AggShards:        *shards,
	}
	switch *algo {
	case "async":
		cfg.Algorithm = core.Async
		cfg.AggregationGoal = *goal
	case "sync":
		cfg.Algorithm = core.Sync
		cfg.OverSelection = *overselect
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
	start := time.Now()
	res := core.Run(w.Model, w.Corpus, w.Pop, cfg)
	fmt.Printf("algorithm         %s (goal %d)\n", res.Algorithm, res.Goal)
	fmt.Printf("server updates    %d\n", res.ServerUpdates)
	fmt.Printf("client updates    %d received, %d discarded, %d dropouts, %d timeouts\n",
		res.CommTrips, res.Discarded, res.Dropouts, res.Timeouts)
	fmt.Printf("simulated time    %.2f h (%.1f server updates/h)\n", res.Hours(), res.UpdatesPerHour())
	fmt.Printf("mean client exec  %.1f s\n", res.MeanClientExecTime)
	if len(res.LossCurve) > 0 {
		fmt.Printf("eval loss         %.4f -> %.4f (perplexity %.1f)\n",
			res.LossCurve[0].V, res.FinalLoss, math.Exp(res.FinalLoss))
	}
	fmt.Printf("wall time         %.1f s\n", time.Since(start).Seconds())
}

func secaggDemo() {
	const (
		vecLen    = 8
		threshold = 3
		clients   = 4
	)
	fmt.Println("== Asynchronous Secure Aggregation demo (Section 5, Appendix B) ==")
	params := secagg.Params{VecLen: vecLen, Threshold: threshold, Scale: 1 << 16}
	dep, err := secagg.NewDeployment(params, []byte("papaya-tsa-binary-v1"),
		tee.DefaultCostModel(), rand.Reader)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("deployed TSA in enclave; binary measurement published to verifiable log (size %d)\n", dep.Log.Size())

	bundles, err := dep.FetchInitialBundles(clients)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	trust := dep.ClientTrust()
	agg := dep.NewAggregator()
	want := make([]float64, vecLen)
	for i := 0; i < clients; i++ {
		sess, err := secagg.NewClientSession(trust, bundles[i], rand.Reader)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		update := make([]float32, vecLen)
		for j := range update {
			update[j] = float32(i+1) * 0.25
			want[j] += float64(update[j])
		}
		up, err := sess.MaskUpdate(update, rand.Reader)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := agg.Add(up); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("client %d: quote verified, log inclusion checked, DH completed, masked update submitted (masked[0]=%d)\n",
			i, up.Masked[0])
	}
	sum, n, err := agg.Unmask()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("unmasked aggregate of %d clients: got %.3f, want %.3f\n", n, sum[0], want[0])
	st := dep.Enclave.Stats()
	fmt.Printf("enclave boundary: %d calls, %d bytes in, %d bytes out, %.2f ms simulated transfer\n",
		st.Calls, st.BytesIn, st.BytesOut, st.SimulatedMillis())
	fmt.Println("the server never observed an individual update; the enclave never saw the model")
}
