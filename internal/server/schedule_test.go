package server_test

// Every release runs on the task's stepper: the finisher that meets the
// goal is answered at once, in SyncFL and under SecAgg as in AsyncFL.
// These drills pin what the move must keep. A sync round's next cohort
// starts at the version the closed round published, and a SecAgg release
// holds exactly the goal even with finishers racing the unmask.

import (
	"crypto/rand"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fedopt"
	"repro/internal/secagg"
	"repro/internal/server"
	"repro/internal/tee"
)

// TestSyncJoinAfterRoundCloseSeesSettledVersion runs sync rounds of three
// sessions at goal 2 and joins the next cohort the moment the closing
// upload is answered. Each join must report the version task-info settles
// on, which is the number of rounds closed so far; the straggler of each
// round is refused with "round closed".
func TestSyncJoinAfterRoundCloseSeesSettledVersion(t *testing.T) {
	const (
		numParams = 32
		rounds    = 20
	)
	net, _ := publishWorld(t, "inmem", server.TaskSpec{
		ID: "syncjoin", Mode: core.Sync, NumParams: numParams,
		Concurrency: 3, AggregationGoal: 2, Capability: "lm",
		InitParams: make([]float32, numParams),
	})
	delta := make([]float32, numParams)
	delta[0] = 0.01
	upload := func(sessionID uint64) server.UploadResponse {
		ur, err := net.Call("test", "agg", "upload-chunk", server.UploadChunk{
			TaskID: "syncjoin", SessionID: sessionID, Data: delta, Done: true, NumExamples: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ur.(server.UploadResponse)
	}
	for r := 0; r < rounds; r++ {
		var cohort []server.JoinResponse
		for i := 0; i < 3; i++ {
			jr, err := net.Call("test", "agg", "join", server.JoinRequest{TaskID: "syncjoin", ClientID: int64(3*r + i)})
			if err != nil {
				t.Fatal(err)
			}
			join := jr.(server.JoinResponse)
			if !join.Accepted {
				t.Fatalf("round %d join %d refused: %s", r, i, join.Reason)
			}
			if join.Version != r {
				t.Fatalf("round %d join %d at version %d, want %d", r, i, join.Version, r)
			}
			cohort = append(cohort, join)
		}
		if info := mustInfo(t, net, "syncjoin"); info.Version != cohort[0].Version {
			t.Fatalf("round %d: join reported version %d, task-info settles on %d", r, cohort[0].Version, info.Version)
		}
		for i := 0; i < 2; i++ {
			if ur := upload(cohort[i].SessionID); !ur.OK {
				t.Fatalf("round %d upload %d refused: %s", r, i, ur.Reason)
			}
		}
		if ur := upload(cohort[2].SessionID); ur.OK || ur.Reason != "round closed" {
			t.Fatalf("round %d straggler = %+v, want refusal with \"round closed\"", r, ur)
		}
	}
	if info := mustInfo(t, net, "syncjoin"); info.Version != rounds || info.Updates != 2*rounds {
		t.Fatalf("version %d, updates %d after %d rounds", info.Version, info.Updates, rounds)
	}
}

// TestSecAggConcurrentFinishers drives whole SecAgg participations from
// concurrent devices. Every device uploads the same delta, so every
// release's weighted mean is that delta whatever the staleness weights,
// and the model at version v is FedAdam stepped v times on it. The unmask
// runs without the task mutex; the test pins that each release still holds
// exactly the goal (Version == Updates/Goal) and that the unmasked result
// matches the plaintext replica. Run it under -race.
func TestSecAggConcurrentFinishers(t *testing.T) {
	const (
		goal    = 4
		devices = 4
		each    = 9
	)
	w := newWorld(t, fabricFactories[0], 1, 1) // inmem
	numParams := w.model.NumParams()
	dep, err := secagg.NewDeployment(secagg.Params{
		VecLen: numParams + 1, Threshold: goal, Scale: 1 << 16,
	}, []byte("tsa"), tee.DefaultCostModel(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	spec := lmSpec("secagg-conc", w.model, core.Async, 64, goal)
	spec.InitParams = make([]float32, numParams)
	spec.SecAgg = dep
	w.createTask(spec)

	delta := make([]float32, numParams)
	for j := range delta {
		delta[j] = 0.01 * float32(j%5+1)
	}
	var completed atomic.Int64
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			store := client.NewExampleStore(0, 0)
			store.Add([]int{1, 2, 3}, time.Now())
			dev := &client.Runtime{
				ClientID:     id,
				Capabilities: []string{"lm"},
				Store:        store,
				Exec:         fixedExecutor{delta: delta},
				Net:          w.net,
				Selectors:    []string{selName(0)},
				State:        client.DeviceState{Idle: true, Charging: true, Unmetered: true},
				Random:       rand.Reader,
			}
			for done, tries := 0, 0; done < each && tries < 50*each; tries++ {
				res, err := dev.RunOnce(time.Now())
				if err != nil {
					t.Errorf("device %d: %v", id, err)
					return
				}
				if res.Outcome != client.Completed {
					time.Sleep(time.Millisecond)
					continue
				}
				done++
				completed.Add(1)
			}
		}(int64(d + 1))
	}
	wg.Wait()

	info := w.mustTaskInfo("secagg-conc")
	if info.Updates != completed.Load() || info.Updates != devices*each {
		t.Fatalf("updates = %d, completed = %d, want %d", info.Updates, completed.Load(), devices*each)
	}
	if want := int(info.Updates) / goal; info.Version != want {
		t.Fatalf("version = %d after %d updates at goal %d, want %d", info.Version, info.Updates, goal, want)
	}
	replica := make([]float32, numParams)
	opt := fedopt.DefaultFedAdam()
	for v := 0; v < info.Version; v++ {
		opt.Step(replica, delta)
	}
	for i := range replica {
		if math.Abs(float64(info.Params[i]-replica[i])) > 1e-3 {
			t.Fatalf("params[%d] = %v, plaintext replica %v", i, info.Params[i], replica[i])
		}
	}
}

// TestSecAggRefusesNonDefaultRule: SecAgg clients weight on-device with the
// default rule and the server sees only the masked sum, so a SecAgg spec
// that names another rule is refused at create-task instead of silently
// aggregating with the default.
func TestSecAggRefusesNonDefaultRule(t *testing.T) {
	net := dpWorld(t, "agg-secrule")
	dep, err := secagg.NewDeployment(secagg.Params{
		VecLen: 9, Threshold: 1, Scale: 1 << 16,
	}, []byte("tsa"), tee.DefaultCostModel(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []string{"", "default", "fedavg", "fedbuff", "fedprox"} {
		spec := server.TaskSpec{
			ID: "secrule-" + rule, Mode: core.Async, NumParams: 8, Concurrency: 2,
			AggregationGoal: 1, Capability: "lm", InitParams: make([]float32, 8),
			SecAgg: dep, Aggregation: rule,
		}
		_, err := net.Call("test", "coordinator", "create-task", spec)
		if accept := rule == "" || rule == "default"; accept != (err == nil) {
			t.Fatalf("SecAgg task with rule %q: create-task error %v", rule, err)
		}
	}
}
