package fedopt

import (
	"math"
	"testing"
)

// TestAggregationWeightsGolden pins each rule's Weight against
// hand-computed values: FedAvg ignores staleness, FedBuff damps by
// (1+s)^(-a), FedProx matches FedBuff at a=0.5.
func TestAggregationWeightsGolden(t *testing.T) {
	for _, tc := range []struct {
		name        string
		rule        Aggregation
		numExamples int
		staleness   int
		want        float64
	}{
		{"fedavg/plain", FedAvg{}, 10, 0, 10},
		{"fedavg/ignores-staleness", FedAvg{}, 10, 3, 10},
		{"fedavg/zero-examples-floor", FedAvg{}, 0, 5, 1},
		{"fedbuff/fresh", NewFedBuff(0.5), 10, 0, 10},
		{"fedbuff/stale3", NewFedBuff(0.5), 10, 3, 10.0 / 2.0},      // 10*(1+3)^-0.5 = 5
		{"fedbuff/stale8", NewFedBuff(0.5), 9, 8, 3},                // 9/sqrt(9)
		{"fedbuff/linear", NewFedBuff(1), 8, 3, 2},                  // 8/(1+3)
		{"fedbuff/constant", NewFedBuff(0), 7, 100, 7},              // exponent 0 = FedAvg
		{"fedbuff/floor", NewFedBuff(0.5), -2, 3, 0.5},              // 1/sqrt(4)
		{"fedprox/fresh", NewFedProx(0.1), 10, 0, 10},               // weight side == fedbuff(0.5)
		{"fedprox/stale3", NewFedProx(0.1), 10, 3, 5},               //
		{"default/stale15", DefaultAggregation(), 16, 15, 16.0 / 4}, // 16/sqrt(16)
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.rule.Weight(tc.numExamples, tc.staleness)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Weight(%d, %d) = %v, want %v", tc.numExamples, tc.staleness, got, tc.want)
			}
		})
	}
}

// TestAggregationTransformGolden pins Transform: identity for FedAvg and
// FedBuff, a 1/(1+mu) damp for FedProx.
func TestAggregationTransformGolden(t *testing.T) {
	base := []float32{1, -2, 0.5, 0}
	for _, tc := range []struct {
		name string
		rule Aggregation
		want []float32
	}{
		{"fedavg", FedAvg{}, []float32{1, -2, 0.5, 0}},
		{"fedbuff", NewFedBuff(0.5), []float32{1, -2, 0.5, 0}},
		{"fedprox-mu1", NewFedProx(1), []float32{0.5, -1, 0.25, 0}},
		{"fedprox-mu0.25", NewFedProx(0.25), []float32{0.8, -1.6, 0.4, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := append([]float32(nil), base...)
			tc.rule.Transform(u)
			for i := range u {
				if math.Abs(float64(u[i]-tc.want[i])) > 1e-6 {
					t.Fatalf("Transform -> %v, want %v", u, tc.want)
				}
			}
		})
	}
}

// TestAggregationByName covers the registry: defaults, parameter
// plumbing, and rejection of unknown or out-of-range rules.
func TestAggregationByName(t *testing.T) {
	for _, tc := range []struct {
		name    string
		param   float64
		want    string
		wantErr bool
	}{
		{"", 0, "fedbuff", false},
		{"default", 0, "fedbuff", false},
		{"fedavg", 0, "fedavg", false},
		{"fedbuff", 0.25, "fedbuff", false},
		{"fedbuff", -1, "", true},
		{"fedprox", 0, "fedprox", false},
		{"fedprox", -0.5, "", true},
		{"powersgd", 0, "", true},
	} {
		rule, err := AggregationByName(tc.name, tc.param)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("AggregationByName(%q, %g): want error, got %v", tc.name, tc.param, rule)
			}
			continue
		}
		if err != nil {
			t.Fatalf("AggregationByName(%q, %g): %v", tc.name, tc.param, err)
		}
		if rule.Name() != tc.want {
			t.Fatalf("AggregationByName(%q, %g).Name() = %q, want %q", tc.name, tc.param, rule.Name(), tc.want)
		}
	}
	// Parameter plumbing: the param lands in the rule's knob.
	r, err := AggregationByName("fedbuff", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Weight(8, 3); math.Abs(got-2) > 1e-12 {
		t.Fatalf("fedbuff(1).Weight(8,3) = %v, want 2", got)
	}
	p, err := AggregationByName("fedprox", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.(FedProx).Mu != DefaultProxMu {
		t.Fatalf("fedprox default mu = %g, want %g", p.(FedProx).Mu, DefaultProxMu)
	}
	// The empty-name default is the paper's n/sqrt(1+s), bit for bit: the
	// simulator and the SecAgg client weight through it too.
	def, _ := AggregationByName("", 0)
	for s := 0; s < 20; s++ {
		if got, want := def.Weight(3, s), 3*math.Pow(1+float64(s), -0.5); got != want {
			t.Fatalf("default rule Weight(3, %d) = %v, want %v", s, got, want)
		}
	}
}
