package main

// Observability wiring shared by the networked CLI commands. Every
// serve|agent|selector|loadtest process takes `-obs-listen H:P` and, when
// set, serves the process-global obs registry on that address: Prometheus
// text at /metrics, the span ring at /trace, plus /debug/vars and
// /debug/pprof. The bound URL is printed as
//
//	papaya <cmd>: obs listening on http://H:P
//
// before the command's readiness line, so harnesses that spawn with
// `-obs-listen 127.0.0.1:0` can parse the URL the same way they parse the
// fabric listen line.

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// startObs starts the observability endpoint for one CLI process and
// returns its shutdown func. An empty addr disables the endpoint (the
// returned func is a no-op). When a fabric is supplied its cumulative
// transport.Stats are exported as lazily-read gauges labeled with the
// backend kind, so a scrape sees wire traffic next to tier metrics.
func startObs(cmd, addr string, fab fabricConn, kind string) func() {
	if addr == "" {
		return func() {}
	}
	if fab != nil {
		registerTransportGauges(obs.Default(), kind, fab.Stats)
	}
	url, shutdown, err := obs.Serve(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "papaya %s: obs listen: %v\n", cmd, err)
		os.Exit(1)
	}
	fmt.Printf("papaya %s: obs listening on %s\n", cmd, url)
	return func() { _ = shutdown() }
}

// scrapeObs fetches one obs endpoint's /metrics and returns its nonzero
// papaya_ samples — the compact slice of a scrape worth committing into
// a benchmark report (all-zero series and Go runtime noise dropped).
func scrapeObs(baseURL string) (map[string]float64, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(strings.TrimRight(baseURL, "/") + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", baseURL, resp.Status)
	}
	all, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(all))
	for name, v := range all {
		if strings.HasPrefix(name, "papaya_") && v != 0 {
			out[name] = v
		}
	}
	return out, nil
}

// registerTransportGauges exposes a fabric's transport counters on reg.
// Gauges (not counters) because the fabric owns the cumulative value and
// the registry only reads it at scrape time.
func registerTransportGauges(reg *obs.Registry, kind string, stats func() transport.Stats) {
	labels := []string{"fabric"}
	reg.GaugeFunc("papaya_transport_calls",
		"Outbound RPCs issued by this process's fabric (acknowledged or not).",
		func() float64 { return float64(stats().Calls) }, labels, kind)
	reg.GaugeFunc("papaya_transport_bytes_sent",
		"Request payload bytes written by this process's fabric.",
		func() float64 { return float64(stats().BytesSent) }, labels, kind)
	reg.GaugeFunc("papaya_transport_bytes_received",
		"Response payload bytes read by this process's fabric.",
		func() float64 { return float64(stats().BytesReceived) }, labels, kind)
	reg.GaugeFunc("papaya_transport_acks_elided",
		"Streamed calls whose acknowledgement never crossed the wire (no-ack frames sent plus responses suppressed while serving).",
		func() float64 { return float64(stats().AcksElided) }, labels, kind)
	reg.GaugeFunc("papaya_transport_frames_coalesced",
		"Stream frames written as part of a multi-frame coalesced batch (one writev instead of one write per frame).",
		func() float64 { return float64(stats().FramesCoalesced) }, labels, kind)
}
