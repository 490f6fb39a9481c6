package server_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// uploadOne opens a session and uploads a trivial update, returning the
// upload response. The check-in must be accepted the first time: sessions
// run one at a time, and each answered join releases its pending slot at
// the coordinator.
func uploadOne(t *testing.T, w *world, taskID string, clientID int64) server.UploadResponse {
	t.Helper()
	resp, err := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
		ClientID: clientID, Capabilities: []string{"lm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := resp.(server.CheckinResponse)
	if !cr.Accepted {
		t.Fatalf("client %d rejected: %s", clientID, cr.Reason)
	}
	delta := make([]float32, w.model.NumParams())
	delta[0] = 0.01
	ur, err := w.net.Call("test", selName(0), "route", server.RouteRequest{
		TaskID: cr.TaskID, Method: "upload-chunk", Payload: server.UploadChunk{
			TaskID: cr.TaskID, SessionID: cr.SessionID,
			Data: delta, Done: true, NumExamples: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ur.(server.UploadResponse)
}

// Appendix E.3: a task switches between SyncFL and AsyncFL via a
// configuration change, with no restart.
func TestRuntimeModeSwitch(t *testing.T) { forEachFabric(t, testRuntimeModeSwitch) }

func testRuntimeModeSwitch(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	spec := lmSpec("switch", w.model, core.Sync, 4, 2)
	w.createTask(spec)

	// Sync round: two uploads close a round (goal 2).
	for i := int64(0); i < 2; i++ {
		if ur := uploadOne(t, w, "switch", i); !ur.OK {
			t.Fatalf("sync upload %d rejected: %s", i, ur.Reason)
		}
	}
	if info := w.mustTaskInfo("switch"); info.Version != 1 {
		t.Fatalf("version after sync round = %d", info.Version)
	}

	// Switch to AsyncFL with K=3 — a configuration change only.
	if _, err := w.net.Call("test", agName(0), "reconfigure-task", server.ReconfigureRequest{
		TaskID: "switch", Mode: core.Async, AggregationGoal: 3,
	}); err != nil {
		t.Fatal(err)
	}

	// Async behaviour: no round closure; the third upload triggers the
	// buffered release.
	for i := int64(10); i < 12; i++ {
		if ur := uploadOne(t, w, "switch", i); !ur.OK {
			t.Fatalf("async upload %d rejected: %s", i, ur.Reason)
		}
	}
	if info := w.mustTaskInfo("switch"); info.Version != 1 {
		t.Fatalf("async released early: version = %d", info.Version)
	}
	if ur := uploadOne(t, w, "switch", 12); !ur.OK {
		t.Fatalf("async upload rejected: %s", ur.Reason)
	}
	if info := w.mustTaskInfo("switch"); info.Version != 2 {
		t.Fatalf("async K=3 release did not happen: version = %d", info.Version)
	}

	// And back to Sync with goal 2.
	if _, err := w.net.Call("test", agName(0), "reconfigure-task", server.ReconfigureRequest{
		TaskID: "switch", Mode: core.Sync, AggregationGoal: 2,
	}); err != nil {
		t.Fatal(err)
	}
	for i := int64(20); i < 22; i++ {
		if ur := uploadOne(t, w, "switch", i); !ur.OK {
			t.Fatalf("post-switch sync upload rejected: %s", ur.Reason)
		}
	}
	if info := w.mustTaskInfo("switch"); info.Version != 3 {
		t.Fatalf("sync round after switch-back did not close: version = %d", info.Version)
	}
}

func TestReconfigureValidation(t *testing.T) { forEachFabric(t, testReconfigureValidation) }

func testReconfigureValidation(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	w.createTask(lmSpec("rv", w.model, core.Sync, 4, 2))
	if _, err := w.net.Call("test", agName(0), "reconfigure-task", server.ReconfigureRequest{
		TaskID: "rv", Mode: "bogus", AggregationGoal: 1,
	}); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if _, err := w.net.Call("test", agName(0), "reconfigure-task", server.ReconfigureRequest{
		TaskID: "rv", Mode: core.Async, AggregationGoal: 0,
	}); err == nil {
		t.Fatal("zero goal accepted")
	}
	if _, err := w.net.Call("test", agName(0), "reconfigure-task", server.ReconfigureRequest{
		TaskID: "ghost", Mode: core.Async, AggregationGoal: 1,
	}); err == nil {
		t.Fatal("unknown task accepted")
	}
}

// Switching to a smaller goal with a fuller buffer must still release on the
// next upload (the exact-equality trigger alone would miss).
func TestSwitchWithOverfullBuffer(t *testing.T) { forEachFabric(t, testSwitchWithOverfullBuffer) }

func testSwitchWithOverfullBuffer(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	w.createTask(lmSpec("overfull", w.model, core.Async, 8, 5))
	for i := int64(0); i < 3; i++ {
		if ur := uploadOne(t, w, "overfull", i); !ur.OK {
			t.Fatalf("upload %d rejected: %s", i, ur.Reason)
		}
	}
	// 3 buffered; switch the goal down to 2 (already exceeded).
	if _, err := w.net.Call("test", agName(0), "reconfigure-task", server.ReconfigureRequest{
		TaskID: "overfull", Mode: core.Async, AggregationGoal: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if ur := uploadOne(t, w, "overfull", 99); !ur.OK {
		t.Fatalf("upload rejected: %s", ur.Reason)
	}
	if info := w.mustTaskInfo("overfull"); info.Version != 1 {
		t.Fatalf("overfull buffer never released: version = %d", info.Version)
	}
}
