package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is spec.go printed: every workload and metric the code
// knows is declared there, and nothing else is.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with `bash benchmark/run.sh spec > BENCHMARK.json`")
	}
	if len(blob) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(blob))
	}
}

// The limits of the builder's contract.
func TestSpecWithinContract(t *testing.T) {
	doc := benchmarkSpec()
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	setup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range doc.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", doc.RunSeconds)
	}
}

func metricNames(d detail) []string {
	var names []string
	for n := range d.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// A short real run of each mode emits exactly the declared metrics: the
// wrapped fabrics still negotiate streaming and ack elision, the gates
// pass, and the trace reconciles.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	w, _ := workloadByName("wire_256k")
	w.NumParams = 16384 // wire_256k's configuration at a size that fits a fast test
	// out/ files land in a scratch directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })

	var e2e, layers []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range perLayer {
		layers = append(layers, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)

	d := detail{Meta: newMeta(w, 1, 1, 0), result: result{Metrics: map[string]value{}}}
	if err := netEndToEnd(w, &d); err != nil {
		t.Fatal(err)
	}
	if got := metricNames(d); !reflect.DeepEqual(got, e2e) {
		t.Errorf("untraced run emitted %v, want %v", got, e2e)
	}
	for _, g := range d.Gates {
		if !g.OK {
			t.Errorf("gate %s failed: %s", g.Name, g.Detail)
		}
	}
	for _, m := range endToEnd {
		if d.Metrics[m.Name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m.Name, d.Metrics[m.Name].Value)
		}
	}

	d = detail{Meta: newMeta(w, 1, 1, 1), result: result{Metrics: map[string]value{}}}
	if err := netLayers(w, &d); err != nil {
		t.Fatal(err)
	}
	if got := metricNames(d); !reflect.DeepEqual(got, layers) {
		t.Errorf("traced run emitted %v, want %v", got, layers)
	}
	for _, g := range d.Gates {
		if !g.OK {
			t.Errorf("gate %s failed: %s", g.Name, g.Detail)
		}
	}
	// 4 chunks, one acknowledged; sessions straddling the window's edges
	// keep the ratio from being exactly 3.
	if got := d.Metrics["transport.acks_elided_per_upload"].Value; got < 2.5 {
		t.Errorf("traced fabric elided %.2f acks per upload, want about 3", got)
	}
	if got := d.Metrics["trace.unattributed_share"].Value; got < -0.01 || got > 0.01 {
		t.Errorf("unattributed share %v, want ~0", got)
	}
	if _, err := os.Stat(outDir + "/trace-wire_256k.json"); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}
