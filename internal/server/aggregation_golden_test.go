package server_test

// Golden-value tests for the pluggable aggregation rules as wired through
// the real Aggregator: a hand-built two-client fixture with distinct
// staleness and example counts, checked against an independently computed
// reference for every rule, plus bit-identity regressions proving the
// extracted rule objects reproduce the pre-refactor hard-coded paths
// exactly (the default rule preserves the old math, so equality between
// the default and an explicit rule is equality with the pre-refactor
// aggregator).

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// goldenSession drives one raw participation through the selector route,
// stage by stage, so the test controls exactly when each upload lands.
type goldenSession struct {
	w       *world
	task    string
	id      uint64
	version int
}

// goldenCheckin checks a client in for the given capability, retrying
// while task placement and demand propagate through heartbeats.
func goldenCheckin(t *testing.T, w *world, clientID int64, capability string) *goldenSession {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := w.net.Call("golden-client", selName(0), "checkin", server.CheckinRequest{
			ClientID: clientID, Capabilities: []string{capability},
		})
		if err == nil {
			ci := resp.(server.CheckinResponse)
			if ci.Accepted {
				return &goldenSession{w: w, task: ci.TaskID, id: ci.SessionID}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkin for %q never accepted (last err: %v)", capability, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *goldenSession) route(t *testing.T, method string, payload any) any {
	t.Helper()
	resp, err := s.w.net.Call("golden-client", selName(0), "route", server.RouteRequest{
		TaskID: s.task, Method: method, Payload: payload,
	})
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return resp
}

// download runs stage 1 and asserts the model version the fixture expects.
func (s *goldenSession) download(t *testing.T, wantVersion int) {
	t.Helper()
	dl := s.route(t, "download", server.DownloadRequest{TaskID: s.task, SessionID: s.id}).(server.DownloadResponse)
	if dl.Version != wantVersion {
		t.Fatalf("download version = %d, want %d", dl.Version, wantVersion)
	}
	s.version = dl.Version
}

// upload runs stages 3 and 4: report, then the whole delta as one chunk.
func (s *goldenSession) upload(t *testing.T, delta []float32, numExamples int) {
	t.Helper()
	rep := s.route(t, "report", server.ReportRequest{TaskID: s.task, SessionID: s.id}).(server.ReportResponse)
	if !rep.OK {
		t.Fatalf("report rejected: %s", rep.Reason)
	}
	up := s.route(t, "upload-chunk", server.UploadChunk{
		TaskID: s.task, SessionID: s.id, Offset: 0,
		Data: delta, Done: true, NumExamples: numExamples,
	}).(server.UploadResponse)
	if !up.OK {
		t.Fatalf("upload rejected: %s", up.Reason)
	}
}

// waitVersion polls task-info until the model reaches the version.
func goldenWaitVersion(t *testing.T, w *world, task string, version int) server.TaskInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := w.mustTaskInfo(task)
		if info.Version >= version {
			if info.Version > version {
				t.Fatalf("task %s overshot: version %d, want %d", task, info.Version, version)
			}
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("task %s stuck at version %d, want %d", task, info.Version, version)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// refServer replicates the aggregator's release-and-step arithmetic in the
// same float32 operation order: per-update AXPY into the shard sum with a
// float32 weight, normalization by float32(1/totalWeight), the rule's
// transform scale, then DefaultFedAdam. Written independently of
// internal/buffer and internal/fedopt so a regression in either shows up
// as a golden mismatch here.
type refServer struct {
	params, m, v []float32
}

func newRefServer(n int) *refServer {
	return &refServer{params: make([]float32, n), m: make([]float32, n), v: make([]float32, n)}
}

func (r *refServer) step(updates [][]float32, weights []float64, transformScale float64) {
	sum := make([]float32, len(r.params))
	var totalW float64
	for k, u := range updates {
		w := float32(weights[k])
		for i := range u {
			sum[i] += w * u[i]
		}
		totalW += weights[k]
	}
	inv := float32(1 / totalW)
	for i := range sum {
		sum[i] *= inv
	}
	if transformScale != 1 {
		s := float32(transformScale)
		for i := range sum {
			sum[i] *= s
		}
	}
	// DefaultFedAdam: lr=0.02, b1=0.9, b2=0.99, eps=1e-3, no bias correction.
	b1, b2 := float32(0.9), float32(0.99)
	lr, eps := float32(0.02), float32(1e-3)
	for i, u := range sum {
		r.m[i] = b1*r.m[i] + (1-b1)*u
		r.v[i] = b2*r.v[i] + (1-b2)*u*u
		r.params[i] += lr * r.m[i] / (float32(math.Sqrt(float64(r.v[i]))) + eps)
	}
}

// Fixture deltas. uSetup drives two warm-up releases (equal updates, so
// the weighted mean is uSetup regardless of rule); uStale and uFresh are
// the two-client fixture proper: staleness 1 with 2 examples vs staleness
// 0 with 4 examples, landing in one release.
var (
	uSetup = []float32{0.1, -0.2, 0.3, -0.4}
	uStale = []float32{1, -1, 0.5, 0.25}
	uFresh = []float32{-0.5, 0.5, 1, -1}
)

// driveGoldenFixture runs the canonical upload sequence against the named
// task and returns the final model: two warm-up releases (versions 1, 2),
// then a session that downloaded at version 1 uploading alongside a
// session that downloaded at version 2 (release 3).
func driveGoldenFixture(t *testing.T, w *world, capability string) server.TaskInfo {
	t.Helper()
	// Warm-up release 1: two fresh sessions at version 0.
	sX := goldenCheckin(t, w, 101, capability)
	sY := goldenCheckin(t, w, 102, capability)
	sX.download(t, 0)
	sY.download(t, 0)
	sX.upload(t, uSetup, 1)
	sY.upload(t, uSetup, 1)
	goldenWaitVersion(t, w, sX.task, 1)

	// The stale client downloads at version 1 and holds.
	sStale := goldenCheckin(t, w, 103, capability)
	sStale.download(t, 1)

	// Warm-up release 2 happens underneath it.
	sD := goldenCheckin(t, w, 104, capability)
	sE := goldenCheckin(t, w, 105, capability)
	sD.download(t, 1)
	sE.download(t, 1)
	sD.upload(t, uSetup, 1)
	sE.upload(t, uSetup, 1)
	goldenWaitVersion(t, w, sX.task, 2)

	// The fresh client downloads at version 2; both upload into release 3.
	sFresh := goldenCheckin(t, w, 106, capability)
	sFresh.download(t, 2)
	sStale.upload(t, uStale, 2) // staleness 1, 2 examples
	sFresh.upload(t, uFresh, 4) // staleness 0, 4 examples
	return goldenWaitVersion(t, w, sX.task, 3)
}

// goldenTask builds the fixture task: async, goal 2, a single aggregation
// shard so Add order is the upload order the fixture controls.
func goldenTask(name, capability, rule string) server.TaskSpec {
	return server.TaskSpec{
		ID:              name,
		Mode:            core.Async,
		NumParams:       4,
		Concurrency:     16,
		AggregationGoal: 2,
		AggShards:       1,
		Capability:      capability,
		InitParams:      make([]float32, 4),
		Aggregation:     rule,
	}
}

// TestAggregationRulesGoldenFixture checks every rule's end-to-end server
// arithmetic — weighting, normalization, transform, optimizer — against
// the independent reference on the two-client staleness fixture.
func TestAggregationRulesGoldenFixture(t *testing.T) {
	w := newWorld(t, fabricFactories[0], 1, 1) // inmem

	sqrtHalf := 1 / math.Sqrt(2) // (1+1)^-0.5: staleness-1 damping
	cases := []struct {
		rule string
		// weights for [uStale (n=2, s=1), uFresh (n=4, s=0)] in release 3
		wStale, wFresh float64
		transformScale float64
	}{
		{rule: "fedavg", wStale: 2, wFresh: 4, transformScale: 1},
		{rule: "fedbuff", wStale: 2 * sqrtHalf, wFresh: 4, transformScale: 1},
		{rule: "fedprox", wStale: 2 * sqrtHalf, wFresh: 4, transformScale: 1 / (1 + 0.1)},
	}
	finals := map[string][]float32{}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			cap := "golden-" + tc.rule
			w.createTask(goldenTask("task-"+tc.rule, cap, tc.rule))
			info := driveGoldenFixture(t, w, cap)
			finals[tc.rule] = info.Params

			ref := newRefServer(4)
			ref.step([][]float32{uSetup, uSetup}, []float64{1, 1}, tc.transformScale)
			ref.step([][]float32{uSetup, uSetup}, []float64{1, 1}, tc.transformScale)
			ref.step([][]float32{uStale, uFresh}, []float64{tc.wStale, tc.wFresh}, tc.transformScale)
			for i := range ref.params {
				if diff := math.Abs(float64(info.Params[i] - ref.params[i])); diff > 1e-6 {
					t.Fatalf("%s params[%d] = %v, reference %v (diff %g)",
						tc.rule, i, info.Params[i], ref.params[i], diff)
				}
			}
		})
	}
	// The staleness damping must actually bite: fedavg and fedbuff see the
	// same uploads but weight the stale one differently.
	if a, b := finals["fedavg"], finals["fedbuff"]; a != nil && b != nil {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("fedavg and fedbuff produced identical params on a staleness fixture")
		}
	}
}

// TestDefaultRuleBitIdenticalToExplicit is the refactor regression: the
// default rule ("", the pre-refactor hard-coded path) must be
// bit-identical to explicit "fedbuff" on an async staleness fixture, and
// to explicit "fedavg" on a sync round (where accepted uploads always
// have staleness 0, the two pre-refactor paths coincide with both rules).
func TestDefaultRuleBitIdenticalToExplicit(t *testing.T) {
	w := newWorld(t, fabricFactories[0], 1, 1) // inmem

	// Async: default vs explicit fedbuff through the staleness fixture.
	w.createTask(goldenTask("task-default-async", "golden-default-async", ""))
	w.createTask(goldenTask("task-explicit-async", "golden-explicit-async", "fedbuff"))
	defInfo := driveGoldenFixture(t, w, "golden-default-async")
	expInfo := driveGoldenFixture(t, w, "golden-explicit-async")
	for i := range defInfo.Params {
		if defInfo.Params[i] != expInfo.Params[i] {
			t.Fatalf("async params[%d]: default %v != explicit fedbuff %v",
				i, defInfo.Params[i], expInfo.Params[i])
		}
	}

	// Sync: default vs explicit fedavg through one two-client round.
	syncTask := func(name, cap, rule string) server.TaskSpec {
		spec := goldenTask(name, cap, rule)
		spec.Mode = core.Sync
		return spec
	}
	w.createTask(syncTask("task-default-sync", "golden-default-sync", ""))
	w.createTask(syncTask("task-explicit-sync", "golden-explicit-sync", "fedavg"))
	driveSyncRound := func(cap string) server.TaskInfo {
		sA := goldenCheckin(t, w, 201, cap)
		sB := goldenCheckin(t, w, 202, cap)
		sA.download(t, 0)
		sB.download(t, 0)
		sA.upload(t, uStale, 2)
		sB.upload(t, uFresh, 4)
		return goldenWaitVersion(t, w, sA.task, 1)
	}
	defSync := driveSyncRound("golden-default-sync")
	expSync := driveSyncRound("golden-explicit-sync")
	for i := range defSync.Params {
		if defSync.Params[i] != expSync.Params[i] {
			t.Fatalf("sync params[%d]: default %v != explicit fedavg %v",
				i, defSync.Params[i], expSync.Params[i])
		}
	}
}
