package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runRecord is benchmark/out/run-seed<N>.json: one complete set of runs.
type runRecord struct {
	Meta      runMeta                   `json:"meta"`
	Workloads map[string]workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Correct  bool               `json:"correct"`
	EndToEnd map[string]value   `json:"end_to_end"`
	Spread   map[string]float64 `json:"spread"`
	PerLayer map[string]value   `json:"per_layer"`
}

// verdict judges one (workload, end-to-end metric) pair of two records:
// "unresolved" when either record's own spread exceeds the bound (the
// pair cannot tell a regression from noise), "worse" when b is worse
// than a by more than the bound, "ok" otherwise.
func verdict(m e2eMetric, a, b, spreadA, spreadB float64) string {
	if math.Max(spreadA, spreadB) > m.Bound {
		return "unresolved"
	}
	worse := b > a*(1+m.Bound)
	if m.Better == "higher" {
		worse = b < a*(1-m.Bound)
	}
	if worse {
		return "worse"
	}
	return "ok"
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare A.json B.json")
	}
	var recs [2]runRecord
	for i, path := range args {
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(blob, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if worse := writeComparison(os.Stdout, recs[0], recs[1]); worse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse than their bound", worse)
	}
	return nil
}

// writeComparison prints one row per (workload, end-to-end metric) and
// returns how many are "worse". Every ratio is B over A.
func writeComparison(out io.Writer, a, b runRecord) (worse int) {
	fmt.Fprintf(out, "A: commit %s seed %d    B: commit %s seed %d    ratio = B / A\n",
		a.Meta.Commit, a.Meta.Seed, b.Meta.Commit, b.Meta.Seed)
	fmt.Fprintf(out, "%-16s %-22s %14s %14s %8s %7s %9s %9s  %s\n",
		"workload", "metric", "A", "B", "B/A", "bound", "spread A", "spread B", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		for _, m := range endToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				fmt.Fprintf(out, "%-16s %-22s missing from one record\n", w.Name, m.Name)
				worse++
				continue
			}
			v := verdict(m, va.Value, vb.Value, wa.Spread[m.Name], wb.Spread[m.Name])
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-16s %-22s %14.6g %14.6g %8.4f %6.0f%% %8.1f%% %8.1f%%  %s\n",
				w.Name, m.Name, va.Value, vb.Value, vb.Value/va.Value, 100*m.Bound,
				100*wa.Spread[m.Name], 100*wb.Spread[m.Name], v)
		}
	}
	return worse
}
