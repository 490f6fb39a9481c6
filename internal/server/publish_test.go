package server_test

// The invariants of published model versions and the off-path server step.
// In every mode the finisher that meets the aggregation goal is answered at
// once and the release runs on its own goroutine; every download serves the
// one frame its version was encoded into when it was published. These
// drills run concurrent finishers and downloaders against one task on the
// in-memory fabric and over TCP (where the serving loop writes the shared
// frame behind a stream header) and pin what must survive that: a download
// is always one whole version, versions only move forward, each release is
// one goal's worth of updates counted exactly once, and DP never releases
// past its budget.

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/fedopt"
	"repro/internal/server"
)

// publishCells are the fabrics the drills run on: the in-memory one (the
// caller gets the frame's decode) and raw TCP (the frame crosses a socket).
var publishCells = []string{"inmem", "tcp"}

// publishWorld starts a coordinator and one aggregator "agg" on a fresh
// fabric of the named cell and places spec there.
func publishWorld(t *testing.T, cell string, spec server.TaskSpec) (testFabric, *server.Aggregator) {
	t.Helper()
	net := fabricMaker(cell)(t, 5)
	coord := server.NewCoordinator("coordinator", net, testTimings(), 7, false)
	t.Cleanup(coord.Stop)
	agg := server.NewAggregator("agg", net, "coordinator", testTimings())
	t.Cleanup(agg.Stop)
	if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}
	return net, agg
}

// finishOne runs one whole participation straight against the aggregator:
// join, then the delta as a single final chunk. It reports whether the
// upload was accepted and, when not, the refusal reason.
func finishOne(t *testing.T, net testFabric, task string, clientID int64, delta []float32) (bool, string) {
	t.Helper()
	jr, err := net.Call("test", "agg", "join", server.JoinRequest{TaskID: task, ClientID: clientID})
	if err != nil {
		t.Errorf("join: %v", err)
		return false, err.Error()
	}
	join := jr.(server.JoinResponse)
	if !join.Accepted {
		return false, join.Reason
	}
	ur, err := net.Call("test", "agg", "upload-chunk", server.UploadChunk{
		TaskID: task, SessionID: join.SessionID, Data: delta, Done: true, NumExamples: 1,
	})
	if err != nil {
		t.Errorf("upload-chunk: %v", err)
		return false, err.Error()
	}
	up := ur.(server.UploadResponse)
	return up.OK, up.Reason
}

// TestDownloadRacingStepSeesWholeVersion races downloads against off-path
// steps. Every upload is the same delta of powers of two at weight 1 (the
// fedavg rule), so every release is that delta exactly — the float32 mean
// of n equal powers of two is exact for every n below 41, far above any
// release here — and the model at version v is FedAdam stepped v times on
// it. Each download must be bit-identical to that replica at the version
// it is labelled with, and each downloader's versions must never go back.
func TestDownloadRacingStepSeesWholeVersion(t *testing.T) {
	const (
		numParams   = 256
		uploaders   = 4
		uploadsEach = 24
		downloaders = 3
	)
	delta := make([]float32, numParams)
	for i := range delta {
		delta[i] = float32(math.Ldexp(1, -(4 + i%5)))
		if i%3 == 0 {
			delta[i] = -delta[i]
		}
	}
	// replica[v] is the model after v releases.
	replica := [][]float32{make([]float32, numParams)}
	opt := fedopt.DefaultFedAdam()
	for v := 1; v <= uploaders*uploadsEach; v++ {
		next := append([]float32(nil), replica[v-1]...)
		opt.Step(next, delta)
		replica = append(replica, next)
	}

	for _, cell := range publishCells {
		t.Run(cell, func(t *testing.T) {
			net, _ := publishWorld(t, cell, server.TaskSpec{
				ID: "race", Mode: core.Async, NumParams: numParams,
				Concurrency: 64, AggregationGoal: 2, Capability: "lm",
				InitParams: make([]float32, numParams), Aggregation: "fedavg",
			})
			var uploadsDone atomic.Bool
			var wg, dl sync.WaitGroup
			var downloads atomic.Int64
			for d := 0; d < downloaders; d++ {
				dl.Add(1)
				go func(clientID int64) {
					defer dl.Done()
					jr, err := net.Call("test", "agg", "join", server.JoinRequest{TaskID: "race", ClientID: clientID})
					if err != nil || !jr.(server.JoinResponse).Accepted {
						t.Errorf("downloader join: %v %+v", err, jr)
						return
					}
					session := jr.(server.JoinResponse).SessionID
					last := -1
					for !uploadsDone.Load() {
						resp, err := net.Call("test", "agg", "download", server.DownloadRequest{TaskID: "race", SessionID: session})
						if err != nil {
							t.Errorf("download: %v", err)
							return
						}
						got := resp.(server.DownloadResponse)
						if got.Version < last {
							t.Errorf("client %d: version went back from %d to %d", clientID, last, got.Version)
							return
						}
						last = got.Version
						if got.Version >= len(replica) {
							t.Errorf("version %d beyond any possible release", got.Version)
							return
						}
						want := replica[got.Version]
						for i := range want {
							if math.Float32bits(got.Params[i]) != math.Float32bits(want[i]) {
								t.Errorf("download labelled version %d differs from the replica at param %d: %v vs %v",
									got.Version, i, got.Params[i], want[i])
								return
							}
						}
						downloads.Add(1)
					}
				}(int64(1000 + d))
			}
			for u := 0; u < uploaders; u++ {
				wg.Add(1)
				go func(clientID int64) {
					defer wg.Done()
					for r := 0; r < uploadsEach; r++ {
						if ok, reason := finishOne(t, net, "race", clientID, delta); !ok {
							t.Errorf("upload refused: %s", reason)
							return
						}
					}
				}(int64(1 + u))
			}
			wg.Wait()
			uploadsDone.Store(true)
			dl.Wait()

			info := mustInfo(t, net, "race")
			if info.Updates != uploaders*uploadsEach {
				t.Fatalf("updates = %d, want %d", info.Updates, uploaders*uploadsEach)
			}
			for i, want := range replica[info.Version] {
				if math.Float32bits(info.Params[i]) != math.Float32bits(want) {
					t.Fatalf("settled model at version %d differs from the replica at param %d", info.Version, i)
				}
			}
			if downloads.Load() == 0 || info.Version == 0 {
				t.Fatalf("drill exercised nothing: %d downloads, version %d", downloads.Load(), info.Version)
			}
		})
	}
}

// TestOffPathStepOneReleasePerGoal drives 4 concurrent finishers at goal 8
// and checks the release bookkeeping once the last upload is acknowledged:
// task-info already reports the settled version, every release is one
// server step (releases = versions), no release holds fewer updates than
// the goal (so none drained an empty buffer), and every accepted update is
// released exactly once or still buffered.
func TestOffPathStepOneReleasePerGoal(t *testing.T) {
	const (
		numParams   = 128
		goal        = 8
		finishers   = 4
		uploadsEach = 30
	)
	for _, cell := range publishCells {
		t.Run(cell, func(t *testing.T) {
			net, agg := publishWorld(t, cell, server.TaskSpec{
				ID: "onestep", Mode: core.Async, NumParams: numParams,
				Concurrency: 64, AggregationGoal: goal, Capability: "lm",
				InitParams: make([]float32, numParams),
			})
			delta := make([]float32, numParams)
			for i := range delta {
				delta[i] = 0.001 * float32(i%7)
			}
			var wg sync.WaitGroup
			for f := 0; f < finishers; f++ {
				wg.Add(1)
				go func(clientID int64) {
					defer wg.Done()
					for r := 0; r < uploadsEach; r++ {
						if ok, reason := finishOne(t, net, "onestep", clientID, delta); !ok {
							t.Errorf("upload refused: %s", reason)
							return
						}
					}
				}(int64(1 + f))
			}
			wg.Wait()

			info := mustInfo(t, net, "onestep")
			releases, drained, buffered := agg.ReleaseTally("onestep")
			updates := int(info.Updates)
			if updates != finishers*uploadsEach {
				t.Fatalf("updates = %d, want %d", updates, finishers*uploadsEach)
			}
			if releases != info.Version {
				t.Fatalf("%d releases but task-info reports version %d", releases, info.Version)
			}
			if drained+buffered != updates {
				t.Fatalf("released %d + buffered %d != %d accepted updates", drained, buffered, updates)
			}
			if drained < releases*goal || buffered >= goal {
				t.Fatalf("%d releases drained %d updates with %d left buffered at goal %d", releases, drained, buffered, goal)
			}
			if releases == 0 {
				t.Fatal("no release happened")
			}
		})
	}
}

// TestDPOffPathStepKeepsBudget gives a DP task a budget of exactly three
// releases and drives concurrent finishers past it: the off-path stepper
// makes exactly three noised releases, then completes the task as
// budget_exhausted, and the spent epsilon never exceeds the budget.
func TestDPOffPathStepKeepsBudget(t *testing.T) {
	const (
		numParams = 16
		goal      = 2
		finishers = 4
	)
	cfg := dp.Config{Clip: 1, NoiseMultiplier: 1, Delta: 1e-6, Seed: 5}
	cfg.EpsilonBudget = dp.New(cfg).EpsilonAfter(3) + 1e-9
	for _, cell := range publishCells {
		t.Run(cell, func(t *testing.T) {
			net, _ := publishWorld(t, cell, server.TaskSpec{
				ID: "dpstep", Mode: core.Async, NumParams: numParams,
				Concurrency: 64, AggregationGoal: goal, Capability: "lm",
				InitParams: make([]float32, numParams), DP: &cfg,
			})
			delta := make([]float32, numParams)
			for i := range delta {
				delta[i] = 0.05
			}
			var wg sync.WaitGroup
			for f := 0; f < finishers; f++ {
				wg.Add(1)
				go func(clientID int64) {
					defer wg.Done()
					for r := 0; r < 20; r++ {
						if ok, reason := finishOne(t, net, "dpstep", clientID, delta); !ok {
							if reason != "budget_exhausted" {
								t.Errorf("upload refused: %s", reason)
							}
							return
						}
					}
				}(int64(1 + f))
			}
			wg.Wait()

			info := mustInfo(t, net, "dpstep")
			if !info.DPExhausted {
				t.Fatalf("80 uploads at goal %d never exhausted a 3-release budget: %+v", goal, info)
			}
			if info.DPReleases != 3 || info.Version != 3 {
				t.Fatalf("releases = %d, version = %d, want 3/3", info.DPReleases, info.Version)
			}
			if info.DPEpsilon > info.DPBudget {
				t.Fatalf("spent epsilon %v exceeds the budget %v", info.DPEpsilon, info.DPBudget)
			}
			jr, err := net.Call("test", "agg", "join", server.JoinRequest{TaskID: "dpstep", ClientID: 99})
			if err != nil {
				t.Fatal(err)
			}
			if j := jr.(server.JoinResponse); j.Accepted || j.Reason != "budget_exhausted" {
				t.Fatalf("join after exhaustion = %+v, want budget_exhausted", j)
			}
		})
	}
}

func mustInfo(t *testing.T, net testFabric, task string) server.TaskInfo {
	t.Helper()
	resp, err := net.Call("test", "agg", "task-info", task)
	if err != nil {
		t.Fatal(err)
	}
	return resp.(server.TaskInfo)
}
