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

// runSelector starts one standalone Selector process — the paper's
// client-facing ingress tier (Section 4). It discovers the coordinator
// fabric (learning every advertised aggregator's route from the gossiped
// discovery document), announces itself back so other processes learn this
// selector the same way, and serves check-in and route traffic over the
// fabric's pooled sessions. Killing the process exercises the client-side
// failover path (Appendix E.4 "clients retry through a different
// selector"); killing an agent behind it exercises the stale-route path —
// the map refresh re-points its tasks at the survivors.
func runSelector(args []string) {
	fs := flag.NewFlagSet("selector", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP listen address for this selector")
	advertise := fs.String("advertise", "", "public base URL peers should use (default http://<listen> or tcp://<listen>)")
	coordURL := fs.String("coordinator", "", "base URL of the papaya serve process (required; a tcp:// URL selects the raw-TCP fabric)")
	coordName := fs.String("coordinator-name", "coordinator", "coordinator node name")
	name := fs.String("name", "", "selector node name (default selector-<pid>)")
	refresh := fs.Duration("refresh", 250*time.Millisecond, "assignment-map and route-discovery refresh cadence")
	obsListen := fs.String("obs-listen", "", "observability listen address (H:P): /metrics, /trace, /debug/vars, /debug/pprof; empty disables")
	_ = fs.Parse(args)

	if *coordURL == "" {
		fmt.Fprintln(os.Stderr, "papaya selector: -coordinator URL is required")
		os.Exit(2)
	}
	selName := *name
	if selName == "" {
		selName = fmt.Sprintf("selector-%d", os.Getpid())
	}

	fabric, err := newFabric(fabricSpec{
		kind: fabricKindForURL(*coordURL), listen: *listen,
		advertise: *advertise, seed: 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	timings := server.DefaultTimings()
	timings.MapRefresh = *refresh
	// The selector must exist before Advertise: the advertisement carries
	// this fabric's locally served nodes, and an empty document would leave
	// the coordinator (and everyone it gossips to) without our route.
	sel := server.NewSelector(selName, fabric, *coordName, timings)

	// Announce this selector to the coordinator fabric (so its route is
	// gossiped to everyone who discovers the coordinator) and learn the
	// coordinator's nodes plus every route it gossips — including agents
	// that advertised there before us.
	if _, err := fabric.Advertise(*coordURL); err != nil {
		fmt.Fprintf(os.Stderr, "papaya selector: advertising to %s: %v\n", *coordURL, err)
		os.Exit(1)
	}

	// Keep discovery fresh in the background: agents that join after us
	// reach the coordinator's gossip on their advertise; we pick their
	// routes up on the next tick. A dead agent's stale route is harmless:
	// calls toward it fail fast and the map refresh re-points its tasks.
	stopDiscover := make(chan struct{})
	go func() {
		ticker := time.NewTicker(*refresh)
		defer ticker.Stop()
		for {
			select {
			case <-stopDiscover:
				return
			case <-ticker.C:
				_, _ = fabric.Discover(*coordURL)
			}
		}
	}()

	obsShutdown := startObs("selector", *obsListen, fabric, fabricKindForURL(*coordURL))
	defer obsShutdown()

	fmt.Printf("papaya selector: %s serving on %s, coordinator %s\n",
		selName, fabric.BaseURL(), *coordURL)
	fmt.Println("papaya selector: ready")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig

	close(stopDiscover)
	sel.Stop()
	_ = fabric.Close()
	fmt.Println("papaya selector: clean shutdown")
}
