package server_test

// Regression suite for the central-DP tier on the networked control plane:
// placement validation, the noised release path with its observability
// surface, epsilon-budget exhaustion semantics, the server-side re-clip
// after dequantize (quantization error can inflate a client-side-clipped
// norm), non-finite update rejection on the raw codec, the sharded-path
// concurrency drill, and the no-DP bit-identity guarantee across the full
// fabric conformance matrix.

import (
	"crypto/rand"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/obs"
	"repro/internal/secagg"
	"repro/internal/server"
	"repro/internal/tee"
	"repro/internal/transport"
	"repro/internal/vecf"
)

// dpWorld stands up a one-aggregator control plane on the in-memory fabric
// with a uniquely named aggregator, so per-node obs metric deltas are
// attributable to the test that produced them (the obs registry is
// process-global).
func dpWorld(t *testing.T, aggName string) *transport.Network {
	t.Helper()
	net := transport.NewNetwork(1)
	coord := server.NewCoordinator("coordinator", net, testTimings(), 3, false)
	t.Cleanup(coord.Stop)
	agg := server.NewAggregator(aggName, net, "coordinator", testTimings())
	t.Cleanup(agg.Stop)
	if _, err := net.Call("test", "coordinator", "register-aggregator", aggName); err != nil {
		t.Fatal(err)
	}
	return net
}

func dpJoin(t *testing.T, net *transport.Network, agg, task string, clientID int64) server.JoinResponse {
	t.Helper()
	jr, err := net.Call("test", agg, "join", server.JoinRequest{TaskID: task, ClientID: clientID})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	return jr.(server.JoinResponse)
}

func dpUpload(t *testing.T, net *transport.Network, agg string, c server.UploadChunk) server.UploadResponse {
	t.Helper()
	ur, err := net.Call("test", agg, "upload-chunk", c)
	if err != nil {
		t.Fatalf("upload-chunk: %v", err)
	}
	return ur.(server.UploadResponse)
}

func dpTaskInfo(t *testing.T, net *transport.Network, agg, task string) server.TaskInfo {
	t.Helper()
	resp, err := net.Call("test", agg, "task-info", task)
	if err != nil {
		t.Fatalf("task-info: %v", err)
	}
	return resp.(server.TaskInfo)
}

// TestDPPlacementValidation pins placement-time enforcement: a malformed DP
// block is rejected at create-task (like a bad fedopt rule), and DP cannot
// be combined with SecAgg — the server cannot clip masked updates, so the
// combination would silently void the sensitivity bound.
func TestDPPlacementValidation(t *testing.T) {
	net := dpWorld(t, "agg-dpval")
	base := server.TaskSpec{
		Mode:            core.Async,
		NumParams:       8,
		Concurrency:     2,
		AggregationGoal: 1,
		Capability:      "lm",
		InitParams:      make([]float32, 8),
	}

	bad := base
	bad.ID = "dpval-badclip"
	bad.DP = &dp.Config{Clip: -1, NoiseMultiplier: 1, Delta: 1e-6}
	if _, err := net.Call("test", "coordinator", "create-task", bad); err == nil {
		t.Fatal("create-task accepted a DP config with negative Clip")
	}

	bad = base
	bad.ID = "dpval-baddelta"
	bad.DP = &dp.Config{Clip: 1, NoiseMultiplier: 1, Delta: 2}
	if _, err := net.Call("test", "coordinator", "create-task", bad); err == nil {
		t.Fatal("create-task accepted a DP config with Delta >= 1")
	}

	masked := base
	masked.ID = "dpval-secagg"
	masked.DP = &dp.Config{Clip: 1, NoiseMultiplier: 1, Delta: 1e-6}
	dep, err := secagg.NewDeployment(secagg.Params{
		VecLen: 9, Threshold: 1, Scale: 1 << 16,
	}, []byte("tsa"), tee.DefaultCostModel(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	masked.SecAgg = dep
	if _, err := net.Call("test", "coordinator", "create-task", masked); err == nil {
		t.Fatal("create-task accepted DP combined with SecAgg")
	}

	good := base
	good.ID = "dpval-good"
	good.DP = &dp.Config{Clip: 1, NoiseMultiplier: 1, Delta: 1e-6, Seed: 5}
	if _, err := net.Call("test", "coordinator", "create-task", good); err != nil {
		t.Fatalf("create-task rejected a valid DP config: %v", err)
	}
	if info := dpTaskInfo(t, net, "agg-dpval", "dpval-good"); !info.DPEnabled {
		t.Fatal("placed DP task does not report DPEnabled")
	}
}

// TestDPNoisedAggregationEndToEnd drives a DP task and an otherwise
// identical plain task through the same uploads and asserts (a) the DP
// release actually perturbs the model relative to the noise-free path,
// (b) the accountant's epsilon matches the analytic composition and is
// surfaced on both the task-info wire message and the papaya_dp_epsilon
// gauge, and (c) the release/clip observability counters advance by
// exactly the work this test did.
func TestDPNoisedAggregationEndToEnd(t *testing.T) {
	const numParams = 8
	net := dpWorld(t, "agg-dpe2e")
	cfg := dp.Config{Clip: 1, NoiseMultiplier: 0.8, Delta: 1e-6, Seed: 41}
	mkSpec := func(id string) server.TaskSpec {
		return server.TaskSpec{
			ID:              id,
			Mode:            core.Async,
			NumParams:       numParams,
			Concurrency:     4,
			AggregationGoal: 2,
			Capability:      "lm",
			InitParams:      make([]float32, numParams),
		}
	}
	dpSpec := mkSpec("dpe2e")
	dpSpec.DP = &cfg
	plainSpec := mkSpec("dpe2e-plain")
	for _, spec := range []server.TaskSpec{dpSpec, plainSpec} {
		if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
			t.Fatal(err)
		}
	}

	before := obs.Default().Snapshot()
	drive := func(task string) {
		for i := int64(1); i <= 2; i++ {
			join := dpJoin(t, net, "agg-dpe2e", task, i)
			if !join.Accepted {
				t.Fatalf("join rejected: %s", join.Reason)
			}
			delta := make([]float32, numParams)
			for j := range delta {
				delta[j] = 0.05 * float32(j+1)
			}
			resp := dpUpload(t, net, "agg-dpe2e", server.UploadChunk{
				TaskID: task, SessionID: join.SessionID,
				Data: delta, Done: true, NumExamples: 1,
			})
			if !resp.OK {
				t.Fatalf("upload rejected: %s", resp.Reason)
			}
		}
	}
	drive("dpe2e")
	drive("dpe2e-plain")

	info := dpTaskInfo(t, net, "agg-dpe2e", "dpe2e")
	plain := dpTaskInfo(t, net, "agg-dpe2e", "dpe2e-plain")
	if info.Version != 1 || plain.Version != 1 {
		t.Fatalf("versions = %d/%d, want 1/1", info.Version, plain.Version)
	}
	if !info.DPEnabled || info.DPReleases != 1 || info.DPExhausted {
		t.Fatalf("dp task info = %+v, want DPEnabled, 1 release, not exhausted", info)
	}
	if plain.DPEnabled {
		t.Fatal("plain task reports DPEnabled")
	}
	want := dp.New(cfg).EpsilonAfter(1)
	if math.Abs(info.DPEpsilon-want) > 1e-12 {
		t.Fatalf("DPEpsilon = %v, want %v (analytic composition after 1 release)", info.DPEpsilon, want)
	}
	if info.DPDelta != cfg.Delta {
		t.Fatalf("DPDelta = %v, want %v", info.DPDelta, cfg.Delta)
	}
	same := true
	for i := range info.Params {
		if info.Params[i] != plain.Params[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("DP release is bit-identical to the noise-free release; no noise was added")
	}

	after := obs.Default().Snapshot()
	if got := after[`papaya_dp_releases_total{node="agg-dpe2e"}`] - before[`papaya_dp_releases_total{node="agg-dpe2e"}`]; got != 1 {
		t.Fatalf("papaya_dp_releases_total delta = %v, want 1", got)
	}
	gauge := `papaya_dp_epsilon{node="agg-dpe2e",task="dpe2e"}`
	if got := after[gauge]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("%s = %v, want %v", gauge, got, want)
	}
	if got := after[`papaya_dp_clip_fraction_count{node="agg-dpe2e"}`] - before[`papaya_dp_clip_fraction_count{node="agg-dpe2e"}`]; got != 2 {
		t.Fatalf("papaya_dp_clip_fraction_count delta = %v, want 2 (one observation per DP upload)", got)
	}
}

// TestDPBudgetExhaustion pins the budget-gate semantics end to end: the
// budget admits exactly one release; the upload whose release would exceed
// it is still accepted (counted, never released) while the task flips to
// budget_exhausted; in-flight sessions are aborted with that reason; and
// join refuses new participants from then on.
func TestDPBudgetExhaustion(t *testing.T) {
	const numParams = 8
	net := dpWorld(t, "agg-dpbud")
	cfg := dp.Config{Clip: 1, NoiseMultiplier: 1, Delta: 1e-6, Seed: 11}
	cfg.EpsilonBudget = dp.New(cfg).EpsilonAfter(1) + 1e-9
	spec := server.TaskSpec{
		ID:              "dpbud",
		Mode:            core.Async,
		NumParams:       numParams,
		Concurrency:     8,
		AggregationGoal: 1,
		Capability:      "lm",
		InitParams:      make([]float32, numParams),
		DP:              &cfg,
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}

	delta := make([]float32, numParams)
	for j := range delta {
		delta[j] = 0.1
	}
	upload := func(sessionID uint64) server.UploadResponse {
		return dpUpload(t, net, "agg-dpbud", server.UploadChunk{
			TaskID: "dpbud", SessionID: sessionID,
			Data: delta, Done: true, NumExamples: 1,
		})
	}

	// Release 1: within budget.
	s1 := dpJoin(t, net, "agg-dpbud", "dpbud", 1)
	if !s1.Accepted {
		t.Fatalf("join 1 rejected: %s", s1.Reason)
	}
	if resp := upload(s1.SessionID); !resp.OK {
		t.Fatalf("upload 1 rejected: %s", resp.Reason)
	}

	// s2 trains while the budget caps out; the gate must abort it.
	s2 := dpJoin(t, net, "agg-dpbud", "dpbud", 2)
	if !s2.Accepted {
		t.Fatalf("join 2 rejected: %s", s2.Reason)
	}
	// s3's upload would need release 2, which the budget refuses. The
	// upload itself is still acknowledged: it was accepted and counted,
	// it just can never be released.
	s3 := dpJoin(t, net, "agg-dpbud", "dpbud", 3)
	if !s3.Accepted {
		t.Fatalf("join 3 rejected: %s", s3.Reason)
	}
	if resp := upload(s3.SessionID); !resp.OK {
		t.Fatalf("budget-tripping upload rejected (%s); it must be accepted without release", resp.Reason)
	}

	info := dpTaskInfo(t, net, "agg-dpbud", "dpbud")
	if info.Version != 1 {
		t.Fatalf("version = %d, want 1 (the gated release must not happen)", info.Version)
	}
	if info.DPReleases != 1 || !info.DPExhausted {
		t.Fatalf("releases=%d exhausted=%v, want 1/true", info.DPReleases, info.DPExhausted)
	}
	if info.DPBudget != cfg.EpsilonBudget {
		t.Fatalf("DPBudget = %v, want %v", info.DPBudget, cfg.EpsilonBudget)
	}
	if info.Updates != 2 {
		t.Fatalf("updates = %d, want 2 (the gated upload still counts)", info.Updates)
	}
	// The refused release must leave the accountant untouched.
	if want := dp.New(cfg).EpsilonAfter(1); math.Abs(info.DPEpsilon-want) > 1e-12 {
		t.Fatalf("DPEpsilon = %v, want %v (refusal must not spend budget)", info.DPEpsilon, want)
	}

	if s4 := dpJoin(t, net, "agg-dpbud", "dpbud", 4); s4.Accepted || s4.Reason != "budget_exhausted" {
		t.Fatalf("join after exhaustion = %+v, want rejection with budget_exhausted", s4)
	}
	if resp := upload(s2.SessionID); resp.OK || resp.Reason != "budget_exhausted" {
		t.Fatalf("in-flight upload after exhaustion = %+v, want budget_exhausted abort", resp)
	}
	if info := dpTaskInfo(t, net, "agg-dpbud", "dpbud"); info.Active != 0 {
		t.Fatalf("%d sessions still open after exhaustion drained them", info.Active)
	}
}

// TestDPQuantizedUploadReclipped is the adversarial-quantization fixture:
// an int8-quantized update whose decoded L2 norm exceeds the client-side
// clip bound (rounding error inflates coordinates sitting just above a
// rounding boundary). The server must re-clip after dequantize — the
// clip-fraction histogram records a pre-clip norm above the bound.
func TestDPQuantizedUploadReclipped(t *testing.T) {
	const numParams = 256
	// Coordinate 0 pins the int8 scale at 127/1.0; every other coordinate
	// sits at 5.503 quantization steps, which rounds up to 6 — a ~9%
	// per-coordinate inflation that compounds into a decoded norm ~3%
	// above the original.
	orig := make([]float32, numParams)
	orig[0] = 1.0
	for i := 1; i < numParams; i++ {
		orig[i] = float32(5.503 / 127.0)
	}
	clip := vecf.Norm2(orig)
	frame, err := compress.CompressFloats(compress.Quantized{}, orig)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := compress.DecompressFloats(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got := vecf.Norm2(decoded); got <= clip*1.02 {
		t.Fatalf("fixture is not adversarial: decoded norm %v vs clip %v", got, clip)
	}

	net := dpWorld(t, "agg-dpq")
	spec := server.TaskSpec{
		ID:              "dpq",
		Mode:            core.Async,
		NumParams:       numParams,
		Concurrency:     2,
		AggregationGoal: 10, // never released; this test is about the accumulate path
		Capability:      "lm",
		InitParams:      make([]float32, numParams),
		UploadChunkSize: numParams,
		Compress:        "quantized",
		DP:              &dp.Config{Clip: clip, NoiseMultiplier: 1, Delta: 1e-6, Seed: 5},
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}

	before := obs.Default().Snapshot()
	join := dpJoin(t, net, "agg-dpq", "dpq", 1)
	if !join.Accepted {
		t.Fatalf("join rejected: %s", join.Reason)
	}
	resp := dpUpload(t, net, "agg-dpq", server.UploadChunk{
		TaskID: "dpq", SessionID: join.SessionID,
		Packed: frame, Done: true, NumExamples: 1,
	})
	if !resp.OK {
		t.Fatalf("quantized upload rejected: %s", resp.Reason)
	}
	after := obs.Default().Snapshot()

	sum := after[`papaya_dp_clip_fraction_sum{node="agg-dpq"}`] - before[`papaya_dp_clip_fraction_sum{node="agg-dpq"}`]
	count := after[`papaya_dp_clip_fraction_count{node="agg-dpq"}`] - before[`papaya_dp_clip_fraction_count{node="agg-dpq"}`]
	if count != 1 {
		t.Fatalf("clip-fraction count delta = %v, want 1", count)
	}
	if sum <= 1.02 {
		t.Fatalf("pre-clip norm fraction = %v, want > 1.02: the server did not see the inflated post-dequantize norm", sum)
	}
}

// TestNonFiniteUploadRejected pins raw-codec hygiene on every task, DP or
// not: a NaN survives vecf.ClipNorm (every comparison with NaN is false),
// so one poisoned raw update would corrupt the whole aggregate. The
// accumulate path must reject non-finite updates and drop the session.
func TestNonFiniteUploadRejected(t *testing.T) {
	const numParams = 8
	net := dpWorld(t, "agg-dpfin")
	spec := server.TaskSpec{
		ID:              "dpfin",
		Mode:            core.Async,
		NumParams:       numParams,
		Concurrency:     4,
		AggregationGoal: 10,
		Capability:      "lm",
		InitParams:      make([]float32, numParams),
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}

	for i, poison := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		join := dpJoin(t, net, "agg-dpfin", "dpfin", int64(i+1))
		if !join.Accepted {
			t.Fatalf("join %d rejected: %s", i, join.Reason)
		}
		delta := make([]float32, numParams)
		delta[3] = poison
		resp := dpUpload(t, net, "agg-dpfin", server.UploadChunk{
			TaskID: "dpfin", SessionID: join.SessionID,
			Data: delta, Done: true, NumExamples: 1,
		})
		if resp.OK || resp.Reason != "non-finite update" {
			t.Fatalf("poisoned upload %d = %+v, want rejection with %q", i, resp, "non-finite update")
		}
	}

	join := dpJoin(t, net, "agg-dpfin", "dpfin", 9)
	resp := dpUpload(t, net, "agg-dpfin", server.UploadChunk{
		TaskID: "dpfin", SessionID: join.SessionID,
		Data: make([]float32, numParams), Done: true, NumExamples: 1,
	})
	if !resp.OK {
		t.Fatalf("finite upload rejected after poisons: %s", resp.Reason)
	}
	info := dpTaskInfo(t, net, "agg-dpfin", "dpfin")
	if info.Updates != 1 {
		t.Fatalf("updates = %d, want 1 (only the finite upload counts)", info.Updates)
	}
	if info.Active != 0 {
		t.Fatalf("%d sessions leaked (poisoned sessions must be dropped)", info.Active)
	}
}

// TestDPConcurrentChunkUploads is the -race drill for the DP accumulate
// path, mirroring TestConcurrentChunkUploads: the stateless ClipUpdate runs
// on the sharded lock-free path under true concurrency, while NoiseRelease
// and the accountant stay serialized under the exactly-one-finisher
// invariant. The counting invariants must hold and every release must be
// accounted: DPReleases == Version.
func TestDPConcurrentChunkUploads(t *testing.T) {
	const (
		numParams = 96
		chunkSize = 16
		goal      = 4
		clients   = 24
		rounds    = 6
	)
	net := transport.NewNetwork(1)
	coord := server.NewCoordinator("coordinator", net, testTimings(), 3, false)
	defer coord.Stop()
	agg := server.NewAggregator("agg-dpconc", net, "coordinator", testTimings())
	defer agg.Stop()
	if _, err := net.Call("test", "coordinator", "register-aggregator", "agg-dpconc"); err != nil {
		t.Fatal(err)
	}
	cfg := dp.Config{Clip: 0.5, NoiseMultiplier: 1, Delta: 1e-6, Seed: 7}
	spec := server.TaskSpec{
		ID:              "dpconc",
		Mode:            core.Async,
		NumParams:       numParams,
		Concurrency:     clients * 2,
		AggregationGoal: goal,
		Capability:      "lm",
		InitParams:      make([]float32, numParams),
		UploadChunkSize: chunkSize,
		AggShards:       4,
		DP:              &cfg,
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}

	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for cID := 0; cID < clients; cID++ {
		wg.Add(1)
		go func(clientID int64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				jr, err := net.Call("test", "agg-dpconc", "join", server.JoinRequest{TaskID: "dpconc", ClientID: clientID})
				if err != nil {
					t.Errorf("join: %v", err)
					return
				}
				join := jr.(server.JoinResponse)
				if !join.Accepted {
					rejected.Add(1)
					continue
				}
				delta := make([]float32, numParams)
				for i := range delta {
					// Norms straddle the clip bound, so both the clipped
					// and unclipped branches run concurrently.
					delta[i] = float32(clientID) * 0.001
				}
				ok := true
				for off := 0; off < numParams; off += chunkSize {
					end := off + chunkSize
					if end > numParams {
						end = numParams
					}
					ur, err := net.Call("test", "agg-dpconc", "upload-chunk", server.UploadChunk{
						TaskID:      "dpconc",
						SessionID:   join.SessionID,
						Offset:      off,
						Data:        delta[off:end],
						Done:        end == numParams,
						NumExamples: int(clientID%5) + 1,
					})
					if err != nil {
						t.Errorf("upload-chunk: %v", err)
						return
					}
					resp := ur.(server.UploadResponse)
					if !resp.OK {
						ok = false
						break
					}
				}
				if ok {
					accepted.Add(1)
				} else {
					rejected.Add(1)
				}
			}
		}(int64(100 + cID))
	}
	wg.Wait()

	ti := dpTaskInfo(t, net, "agg-dpconc", "dpconc")
	if ti.Updates != accepted.Load() {
		t.Fatalf("aggregator counted %d updates, clients saw %d accepted uploads", ti.Updates, accepted.Load())
	}
	maxSteps := int(accepted.Load()) / goal
	if ti.Version > maxSteps || (maxSteps > 0 && ti.Version == 0) {
		t.Fatalf("server stepped %d times for %d accepted uploads (goal %d)", ti.Version, accepted.Load(), goal)
	}
	if ti.Active != 0 {
		t.Fatalf("%d sessions leaked after all uploads completed", ti.Active)
	}
	if ti.DPReleases != ti.Version {
		t.Fatalf("DPReleases = %d but Version = %d; every server step must be a noised, accounted release", ti.DPReleases, ti.Version)
	}
	if want := dp.New(cfg).EpsilonAfter(ti.DPReleases); math.Abs(ti.DPEpsilon-want) > 1e-9 {
		t.Fatalf("DPEpsilon = %v, want %v after %d releases", ti.DPEpsilon, want, ti.DPReleases)
	}
	if accepted.Load() == 0 {
		t.Fatal("no uploads accepted; drill did not exercise the path")
	}
}

// TestNoDPAggregationBitIdentical proves the DP tier costs nothing when
// off: a task without a DP block must aggregate to bit-identical model
// parameters on every fabric of the conformance matrix, direct and
// via-selector — the DP hooks on the accumulate and release paths must be
// exact no-ops, and every wire codec must carry float payloads losslessly.
func TestNoDPAggregationBitIdentical(t *testing.T) {
	const numParams = 35
	var want []float32
	var wantFrom string
	forEachFabric(t, func(t *testing.T, fx fabricFactory) {
		net := fx.make(t, 23)
		coord := server.NewCoordinator("coordinator", net, testTimings(), 7, false)
		defer coord.Stop()
		agg := server.NewAggregator("agg", net, "coordinator", testTimings())
		defer agg.Stop()
		sel := newTestSelector("sel", net, "coordinator", testTimings())
		defer sel.Stop()
		if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
			t.Fatal(err)
		}
		spec := server.TaskSpec{
			ID:              "nodp",
			Mode:            core.Async,
			NumParams:       numParams,
			Concurrency:     10,
			AggregationGoal: 1,
			Capability:      "lm",
			InitParams:      make([]float32, numParams),
		}
		if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < 3; i++ {
			delta := make([]float32, numParams)
			for j := range delta {
				delta[j] = float32(i+1) * 0.001 * float32(j%5)
			}
			store := client.NewExampleStore(0, 0)
			store.Add([]int{1, 2, 3}, time.Now())
			store.Add([]int{2, 3, 4}, time.Now())
			dev := &client.Runtime{
				ClientID:     int64(i + 1),
				Capabilities: []string{"lm"},
				Store:        store,
				Exec:         fixedExecutor{delta: delta},
				Net:          net,
				Selectors:    []string{"sel"},
				State:        client.DeviceState{Idle: true, Charging: true, Unmetered: true},
				Random:       rand.Reader,
			}
			res, err := dev.RunOnce(time.Now())
			if err != nil {
				t.Fatalf("device %d: %v", i, err)
			}
			if res.Outcome != client.Completed {
				t.Fatalf("device %d outcome: %s (%s)", i, res.Outcome, res.Reason)
			}
			// The release runs off the finisher's path and downloads never
			// wait for it; task-info does, so the next device downloads the
			// version this upload led to on every fabric, and every fabric
			// weights the same staleness.
			if _, err := net.Call("test", "agg", "task-info", "nodp"); err != nil {
				t.Fatal(err)
			}
		}

		resp, err := net.Call("test", "agg", "task-info", "nodp")
		if err != nil {
			t.Fatal(err)
		}
		info := resp.(server.TaskInfo)
		if info.Version != 3 {
			t.Fatalf("version = %d, want 3", info.Version)
		}
		if info.DPEnabled {
			t.Fatal("no-DP task reports DPEnabled")
		}
		if want == nil {
			want = append([]float32(nil), info.Params...)
			wantFrom = fx.name
			return
		}
		for j := range want {
			if math.Float32bits(info.Params[j]) != math.Float32bits(want[j]) {
				t.Fatalf("param %d differs from %s reference: %v (%#08x) vs %v (%#08x)",
					j, wantFrom, info.Params[j], math.Float32bits(info.Params[j]),
					want[j], math.Float32bits(want[j]))
			}
		}
	})
}
