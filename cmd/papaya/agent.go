package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

// runAgent starts one remote Aggregator process: it announces itself to a
// running `papaya serve` coordinator and joins the task-placement pool,
// exactly like the paper's elastically scalable Aggregators (Section 4 —
// "aggregators ... can be scaled elastically"). Killing the process
// exercises the real failover path: the coordinator detects the missed
// heartbeats and reassigns the agent's tasks (Appendix E.4).
func runAgent(args []string) {
	fs := flag.NewFlagSet("agent", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP listen address for this agent")
	advertise := fs.String("advertise", "", "public base URL peers should use (default http://<listen> or tcp://<listen>)")
	coordURL := fs.String("coordinator", "", "base URL of the papaya serve process (required; a tcp:// URL selects the raw-TCP fabric)")
	coordName := fs.String("coordinator-name", "coordinator", "coordinator node name")
	name := fs.String("name", "", "aggregator node name (default agent-<pid>)")
	heartbeat := fs.Duration("heartbeat", 250*time.Millisecond, "heartbeat cadence (match the server)")
	obsListen := fs.String("obs-listen", "", "observability listen address (H:P): /metrics, /trace, /debug/vars, /debug/pprof; empty disables")
	_ = fs.Parse(args)

	if *coordURL == "" {
		fmt.Fprintln(os.Stderr, "papaya agent: -coordinator URL is required")
		os.Exit(2)
	}
	aggName := *name
	if aggName == "" {
		aggName = fmt.Sprintf("agent-%d", os.Getpid())
	}

	// The agent speaks whatever backend the coordinator URL names, so one
	// flag covers both deployments.
	fabric, err := newFabric(fabricSpec{
		kind: fabricKindForURL(*coordURL), listen: *listen,
		advertise: *advertise, seed: 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	timings := server.DefaultTimings()
	timings.Heartbeat = *heartbeat
	timings.FailureDeadline = 8 * *heartbeat

	agg := server.NewAggregator(aggName, fabric, *coordName, timings)

	// Announce this process's aggregator to the coordinator fabric (so the
	// coordinator can place tasks here) and learn the coordinator's routes.
	if _, err := fabric.Advertise(*coordURL); err != nil {
		fmt.Fprintf(os.Stderr, "papaya agent: advertising to %s: %v\n", *coordURL, err)
		os.Exit(1)
	}
	if _, err := fabric.Call(aggName, *coordName, "register-aggregator", aggName); err != nil {
		fmt.Fprintf(os.Stderr, "papaya agent: registering with coordinator: %v\n", err)
		os.Exit(1)
	}

	obsShutdown := startObs("agent", *obsListen, fabric, fabricKindForURL(*coordURL))
	defer obsShutdown()

	fmt.Printf("papaya agent: %s serving on %s, registered with %s\n",
		aggName, fabric.BaseURL(), *coordURL)
	fmt.Println("papaya agent: ready")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig

	agg.Stop()
	_ = fabric.Close()
	fmt.Println("papaya agent: clean shutdown")
}
