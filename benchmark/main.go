// Command papaya-benchmark is the repository's one canonical benchmark:
// six named workloads, nine end-to-end metrics every workload reports, and
// per-layer attribution measured from outside the program. See README.md
// in this directory and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh                                   every workload, untraced and traced
//	bash benchmark/run.sh --workload wire_256k --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh compare A.json B.json
//	bash benchmark/run.sh spec                              prints BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/experiments"
)

// outDir receives trace files and run records; it is relative to the
// checkout root, where the benchmark is run from.
const outDir = "benchmark/out"

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: papaya-benchmark run|compare|spec [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "spec":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(benchmarkSpec())
	default:
		err = fmt.Errorf("unknown subcommand %q (want run|compare|spec)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "papaya-benchmark:", err)
		os.Exit(1)
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runMeta records where and on what a run was made.
type runMeta struct {
	Workload   string `json:"workload,omitempty"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Fabric     string `json:"fabric,omitempty"`
	Link       string `json:"link,omitempty"`
}

// hostMeta records the host and build; newMeta adds the workload.
func hostMeta(seed uint64, seconds, trace int) runMeta {
	m := runMeta{
		Seed: seed, Seconds: seconds, Trace: trace, Commit: "unknown",
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				m.Commit = s.Value[:12]
			}
		}
	}
	return m
}

func newMeta(w workload, seed uint64, seconds, trace int) runMeta {
	m := hostMeta(seed, seconds, trace)
	m.Workload, m.Fabric = w.Name, "none (in-process simulator)"
	if !w.sim() {
		m.Fabric, m.Link = w.Fabric+" stream, codec bin, ack-elide", "loopback, not a real link"
	}
	return m
}

// detail is everything one single-workload run knows; the all-workloads
// runner reads it back from outDir.
type detail struct {
	Meta runMeta `json:"meta"`
	result
	// Spread is, per end-to-end metric, the interquartile range over the
	// median of this run's own windows (or set-ups, or repetitions).
	Spread map[string]float64 `json:"spread,omitempty"`
	Gates  []gate             `json:"gates"`
}

func (d *detail) set(name string, v float64) {
	d.Metrics[name] = value{v, unitOf(name)}
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("metric " + name + " is not declared in spec.go")
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all, each untraced then traced)")
	seed := fs.Uint64("seed", 1, "drives client IDs, the delta vector, corpus, DP seed and simulator seed")
	seconds := fs.Int("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and layer replays")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0|1")
	}
	if *name == "" {
		return runAll(*seed, *seconds)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	d := detail{Meta: newMeta(w, *seed, *seconds, *trace)}
	d.Metrics = make(map[string]value)
	var err error
	switch {
	case w.sim() && *trace == 0:
		err = simEndToEnd(w, &d)
	case w.sim():
		err = simLayers(w, &d)
	case *trace == 0:
		err = netEndToEnd(w, &d)
	default:
		err = netLayers(w, &d)
	}
	if err != nil {
		return err
	}
	d.Correct = true
	for _, g := range d.Gates {
		mark := "ok  "
		if !g.OK {
			mark, d.Correct = "FAIL", false
		}
		fmt.Fprintf(os.Stderr, "  gate %s %-20s %s\n", mark, g.Name, g.Detail)
	}
	printMetrics(d)
	if err := writeJSON(detailPath(w.Name, *trace), d); err != nil {
		return err
	}
	line, err := json.Marshal(d.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !d.Correct {
		return fmt.Errorf("%s: a correctness gate failed", w.Name)
	}
	return nil
}

func detailPath(workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("result-%s-t%d.json", workload, trace))
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func printMetrics(d detail) {
	m := d.Meta
	fmt.Fprintf(os.Stderr, "%s seed %d trace %d, %d s; %s; %s; commit %s, %s, nproc %d, GOMAXPROCS %d\n",
		m.Workload, m.Seed, m.Trace, m.Seconds, m.Fabric, m.Link, m.Commit, m.GoVersion, m.NumCPU, m.GOMAXPROCS)
	names := make([]string, 0, len(d.Metrics))
	for n := range d.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := d.Metrics[n]
		line := fmt.Sprintf("  %-46s %14.6g %s", n, v.Value, v.Unit)
		if s, ok := d.Spread[n]; ok {
			line += fmt.Sprintf("   (own spread %.1f%%)", 100*s)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// phases splits a run of the given length: a warm-up of a tenth and
// numWindows windows that share the rest.
func phases(seconds int) (warm, window time.Duration) {
	total := time.Duration(seconds) * time.Second
	return total / 10, total * 9 / 10 / numWindows
}

// setups is how many times a run sets up; setup_s is their better quartile.
const setups = 15

// netEndToEnd is a networked workload's untraced run.
func netEndToEnd(w workload, d *detail) error {
	var p *plane
	var setupS []float64
	for i := 0; i < setups; i++ {
		if p != nil {
			p.close()
		}
		runtime.GC() // every set-up starts from the same quiet heap
		start := time.Now()
		var err error
		if p, err = setup(w, d.Meta.Seed, nil); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer p.close()
	warm, window := phases(d.Meta.Seconds)
	l := p.run(warm, numWindows, window)
	ws := l.windows()
	for _, s := range ws {
		if s.uploads == 0 {
			return errNoUploads
		}
	}
	fillEndToEnd(d, ws, setupS)
	d.Attempted, d.Failed = l.admitted(), l.failed
	d.Gates = p.verify(l, d.Metrics["uploads_per_s"].Value)
	printAdmission(w, l, d.Metrics["uploads_per_s"].Value)
	d.set("peak_rss_mb", peakRSSMB())
	return nil
}

// fillEndToEnd reports each windowed metric's better quartile over the
// windows (or the simulator's repetitions), and its own spread.
func fillEndToEnd(d *detail, ws []windowStats, setupS []float64) {
	d.Spread = make(map[string]float64)
	cols := map[string][]float64{
		"uploads_per_s":         column(ws, func(s windowStats) float64 { return s.rate }),
		"session_p50_ms":        column(ws, func(s windowStats) float64 { return s.p50 }),
		"session_p90_ms":        column(ws, func(s windowStats) float64 { return s.p90 }),
		"cpu_ms_per_upload":     column(ws, func(s windowStats) float64 { return s.cpuMs }),
		"wire_bytes_per_upload": column(ws, func(s windowStats) float64 { return s.wire }),
		"allocs_per_upload":     column(ws, func(s windowStats) float64 { return s.allocs }),
		"alloc_kb_per_upload":   column(ws, func(s windowStats) float64 { return s.allocKB }),
		"setup_s":               setupS,
	}
	for _, m := range endToEnd {
		xs, ok := cols[m.Name]
		if !ok {
			continue // peak_rss_mb: one value per process
		}
		d.set(m.Name, betterQuartile(xs, m.Better))
		d.Spread[m.Name] = spread(xs)
		fmt.Fprintf(os.Stderr, "  %-22s windows %.6g\n", m.Name, xs)
	}
	n := 0
	for _, s := range ws {
		n += s.uploads
	}
	fmt.Fprintf(os.Stderr, "  %d windows, %d uploads measured (latency sample count)\n", len(ws), n)
}

// printAdmission states the admission ceiling next to the measured rate.
// `papaya serve` defaults cap admission at Concurrency / Heartbeat because
// Coordinator.pending only resets in aggReport (README, "Admission cap").
func printAdmission(w workload, l load, rate float64) {
	ceiling := float64(w.Concurrency) / heartbeat.Seconds()
	discard := 0.0
	if a := l.admitted(); a > 0 {
		discard = float64(l.discarded) / float64(a)
	}
	fmt.Fprintf(os.Stderr, "  admission: cap %.0f check-ins/s; predicted uploads/s at the cap %.1f (discard share %.3f); measured %.1f; %d check-ins rejected\n",
		ceiling, ceiling*(1-discard), discard, rate, l.rejected)
}

// simEndToEnd is the simulator workload's untraced run.
func simEndToEnd(w workload, d *detail) error {
	var setupS []float64
	var world *experiments.World
	for i := 0; i < setups; i++ {
		runtime.GC()
		start := time.Now()
		world = simSetup(d.Meta.Seed)
		setupS = append(setupS, time.Since(start).Seconds())
	}
	var reps []simRep
	var ws []windowStats
	for start := time.Now(); len(reps) < simMinReps || time.Since(start) < time.Duration(d.Meta.Seconds)*time.Second; {
		r := runSimRep(world, d.Meta.Seed)
		reps, ws = append(reps, r), append(ws, r.stats)
		d.Attempted += r.res.CommTrips
	}
	fillEndToEnd(d, ws, setupS)
	fmt.Fprintln(os.Stderr, "  "+simSummary(reps[0].res))
	d.Gates = []gate{simHashGate(reps)}
	d.set("peak_rss_mb", peakRSSMB())
	return nil
}

// runAll executes every workload in a child process each (clean MemStats,
// RSS and obs registry), untraced then traced, and writes the combined
// record `compare` reads.
func runAll(seed uint64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rec := runRecord{Meta: hostMeta(seed, seconds, 0), Workloads: make(map[string]workloadRecord)}
	failed := 0
	for _, w := range workloads {
		wr := workloadRecord{Correct: true}
		for trace := 0; trace <= 1; trace++ {
			// The child leaves its full record in outDir; a stale one
			// must not stand in for a child that died.
			_ = os.Remove(detailPath(w.Name, trace))
			cmd := exec.Command(self, "run", "--workload", w.Name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			var d detail
			if blob, err := os.ReadFile(detailPath(w.Name, trace)); err == nil {
				_ = json.Unmarshal(blob, &d)
			}
			if runErr != nil || !d.Correct {
				fmt.Fprintf(os.Stderr, "papaya-benchmark: %s trace %d failed: %v\n", w.Name, trace, runErr)
				failed++
				wr.Correct = false
			}
			if trace == 0 {
				wr.EndToEnd, wr.Spread = d.Metrics, d.Spread
			} else {
				wr.PerLayer = d.Metrics
			}
		}
		rec.Workloads[w.Name] = wr
	}
	path := filepath.Join(outDir, fmt.Sprintf("run-seed%d.json", seed))
	if err := writeJSON(path, rec); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}
