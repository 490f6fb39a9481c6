package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/scenario"
	"repro/internal/transport"
)

// runScenario executes one declarative fleet profile end to end, in
// process: it loads the JSON spec, stands up a control plane on the chosen
// fabric, drives the tiered fleet through the scenario engine, prints the
// convergence summary, and appends the measurements to the bench file.
// CI's scenario-smoke job greps the summary's "converged loss" marker.
func runScenario(args []string) {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	file := fs.String("file", "", "scenario profile JSON (see examples/scenarios/)")
	fabricKind := fs.String("fabric", "inmem", "in-process fabric: inmem|http|tcp")
	compressFlag := fs.String("compress", "", "frame compression for http/tcp fabrics (e.g. streamed)")
	workers := fs.Int("workers", 0, "driver concurrency; 0 = one worker per client")
	aggregation := fs.String("aggregation", "", "override the profile's aggregation rule: fedavg|fedbuff|fedprox")
	aggParam := fs.Float64("agg-param", 0, "override the rule parameter (fedbuff exponent, fedprox mu); 0 keeps the rule default")
	mode := fs.String("mode", "", "override the profile's mode: async|sync")
	aggregators := fs.Int("aggregators", 1, "aggregator count")
	selectors := fs.Int("selectors", 1, "selector count")
	seed := fs.Uint64("seed", 0, "override the profile's seed (0 keeps the profile's)")
	out := fs.String("o", "BENCH_scenarios.json", "bench output path (- for stdout); existing files are appended to")
	_ = fs.Parse(args)

	if *file == "" {
		fmt.Fprintln(os.Stderr, "papaya scenario: -file is required (see examples/scenarios/)")
		os.Exit(2)
	}
	spec, err := scenario.LoadFile(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "papaya scenario:", err)
		os.Exit(1)
	}
	if *aggregation != "" {
		spec.Aggregation = *aggregation
		spec.AggParam = *aggParam
	} else if *aggParam != 0 {
		spec.AggParam = *aggParam
	}
	if *mode != "" {
		spec.Mode = *mode
	}
	if *seed != 0 {
		spec.Seed = *seed
	}

	var fabric transport.Fabric
	switch *fabricKind {
	case "inmem":
		fabric = transport.NewNetwork(int64(spec.Seed))
	case "http", "tcp":
		f, err := newFabric(fabricSpec{
			kind: *fabricKind, listen: "127.0.0.1:0",
			compress: *compressFlag, seed: int64(spec.Seed),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "papaya scenario:", err)
			os.Exit(1)
		}
		defer f.Close()
		fabric = f
	default:
		fmt.Fprintf(os.Stderr, "papaya scenario: unknown fabric %q (want inmem|http|tcp)\n", *fabricKind)
		os.Exit(2)
	}

	rep, err := scenario.Run(spec, scenario.Options{
		Fabric:      fabric,
		FabricName:  *fabricKind,
		Workers:     *workers,
		Aggregators: *aggregators,
		Selectors:   *selectors,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "papaya scenario:", err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "papaya scenario: %s\n", rep.Summary())
	for _, ts := range rep.Tiers {
		fmt.Fprintf(os.Stderr, "papaya scenario: %s\n", ts)
	}
	if err := scenario.WriteReport(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "papaya scenario:", err)
		os.Exit(1)
	}
	if rep.Uploads == 0 || rep.LossAfter >= rep.LossBefore {
		fmt.Fprintln(os.Stderr, "papaya scenario: FAIL: fleet did not converge")
		os.Exit(1)
	}
}
