package server_test

// The simulator and the networked server must agree bit-for-bit on the
// same inputs. Both release through internal/round, so one fixed upload
// sequence fed to a round.Stage the way core.Run feeds it, and to a real
// Aggregator through the selector route, must train the same bits, with
// and without central DP. The float32 reference in
// aggregation_golden_test.go stays the independent check on both.

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/fedopt"
	"repro/internal/rng"
	"repro/internal/round"
	"repro/internal/server"
	"repro/internal/vecf"
)

const identityParams = 16

// identityUpload is one fixture participation: the client downloads the
// model at version from and uploads delta with its example count.
type identityUpload struct {
	client   int64
	from     int
	examples int
	delta    []float32
}

// identityDelta is a fixed pseudo-random delta. Odd i are large enough
// that a clip of 1 bites.
func identityDelta(i int) []float32 {
	r := rng.New(uint64(100 + i))
	scale := 0.05
	if i%2 == 1 {
		scale = 0.6
	}
	d := make([]float32, identityParams)
	for j := range d {
		d[j] = float32(scale * r.NormFloat64())
	}
	return d
}

// identityFixture is three releases at goal 4 over 8 shards. Releases 2
// and 3 mix staleness 0 with staleness 1 and 2, and clients 15 and 23
// (and 19 and 27) share a shard within one release.
func identityFixture() [][]identityUpload {
	up := func(client int64, from, examples int) identityUpload {
		return identityUpload{client: client, from: from, examples: examples, delta: identityDelta(int(client))}
	}
	return [][]identityUpload{
		{up(11, 0, 3), up(12, 0, 1), up(13, 0, 7), up(14, 0, 2)},
		{up(15, 0, 5), up(16, 1, 2), up(17, 1, 9), up(23, 1, 4)},
		{up(19, 0, 6), up(20, 1, 1), up(27, 2, 3), up(22, 2, 8)},
	}
}

// identityViaRound feeds the fixture to a release stage exactly as core.Run
// does: clip on the worker, weight by the default rule at the update's
// staleness, add on shard clientID % shards, then release onto a copy of
// the current model.
func identityViaRound(fixture [][]identityUpload, dpc *dp.Config) ([]float32, float64) {
	st := round.New(identityParams, 4, 8, fedopt.DefaultAggregation(), fedopt.DefaultFedAdam(), dpc)
	params := make([]float32, identityParams)
	for version, release := range fixture {
		for _, u := range release {
			d := vecf.Clone(u.delta)
			if st.DP != nil {
				st.DP.ClipUpdate(d)
			}
			w := st.Rule.Weight(u.examples, version-u.from)
			st.Buf.Add(d, w, int(uint64(u.client)%uint64(st.Buf.NumShards())))
		}
		next := vecf.Clone(params)
		if !st.Release(next, nil) {
			panic("identity fixture: release refused")
		}
		params = next
	}
	if st.DP == nil {
		return params, 0
	}
	return params, st.DP.Epsilon()
}

// identityViaServer drives the fixture through a real Aggregator: every
// session joins and downloads at its version ahead of the uploads, and
// each release's uploads land in fixture order.
func identityViaServer(t *testing.T, w *world, name string, fixture [][]identityUpload, dpc *dp.Config) server.TaskInfo {
	t.Helper()
	capability := "identity-" + name
	w.createTask(server.TaskSpec{
		ID:              "task-identity-" + name,
		Mode:            core.Async,
		NumParams:       identityParams,
		Concurrency:     16,
		AggregationGoal: 4,
		AggShards:       8,
		Capability:      capability,
		InitParams:      make([]float32, identityParams),
		DP:              dpc,
	})
	sessions := map[int64]*goldenSession{}
	var info server.TaskInfo
	for version, release := range fixture {
		for _, rel := range fixture {
			for _, u := range rel {
				if u.from == version {
					s := goldenCheckin(t, w, u.client, capability)
					s.download(t, version)
					sessions[u.client] = s
				}
			}
		}
		for _, u := range release {
			sessions[u.client].upload(t, u.delta, u.examples)
		}
		info = goldenWaitVersion(t, w, sessions[release[0].client].task, version+1)
	}
	return info
}

// TestEnginesAgreeBitForBit is the cross-engine identity: the same
// uploads through the simulator's release and through a networked
// Aggregator give bit-identical params, and under DP at a fixed seed the
// same epsilon.
func TestEnginesAgreeBitForBit(t *testing.T) {
	w := newWorld(t, fabricFactories[0], 1, 1) // inmem
	fixture := identityFixture()
	cases := []struct {
		name string
		dp   *dp.Config
	}{
		{"plain", nil},
		{"dp", &dp.Config{Clip: 1, NoiseMultiplier: 1, Delta: 1e-6, Seed: 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantEps := identityViaRound(fixture, tc.dp)
			info := identityViaServer(t, w, tc.name, fixture, tc.dp)
			for i := range want {
				if math.Float32bits(info.Params[i]) != math.Float32bits(want[i]) {
					t.Fatalf("params[%d]: server %v, simulator release %v", i, info.Params[i], want[i])
				}
			}
			if info.DPEpsilon != wantEps {
				t.Fatalf("epsilon: server %v, simulator release %v", info.DPEpsilon, wantEps)
			}
			if tc.dp != nil {
				return
			}
			// The independent float32 reference, which sums in upload order
			// rather than shard order, agrees to rounding.
			ref := newRefServer(identityParams)
			for version, release := range fixture {
				var updates [][]float32
				var weights []float64
				for _, u := range release {
					updates = append(updates, u.delta)
					weights = append(weights, float64(u.examples)*math.Pow(1+float64(version-u.from), -0.5))
				}
				ref.step(updates, weights, 1)
			}
			for i := range ref.params {
				if diff := math.Abs(float64(want[i] - ref.params[i])); diff > 1e-6 {
					t.Fatalf("params[%d] = %v, reference %v (diff %g)", i, want[i], ref.params[i], diff)
				}
			}
		})
	}
}
