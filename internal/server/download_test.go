package server_test

// The in-memory fabric's download contract: the aggregator answers a
// download with its published model version, whose response frame every
// caller shares, and transport.Network hands each caller the decode of that
// frame — caller-owned memory, exactly what a networked caller decodes.
// Mutating what one download returned must never reach the served model.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/transport"
)

func TestInMemoryDownloadIsCallerOwned(t *testing.T) {
	net := transport.NewNetwork(9)
	coord := server.NewCoordinator("coordinator", net, testTimings(), 7, false)
	defer coord.Stop()
	agg := server.NewAggregator("agg", net, "coordinator", testTimings())
	defer agg.Stop()
	sel := server.NewSelector("sel", net, "coordinator", testTimings())
	defer sel.Stop()
	if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
		t.Fatal(err)
	}

	model := nn.NewBilinear(16, 4) // 144 params
	init := model.InitParams(rng.New(5))
	spec := server.TaskSpec{
		ID: "lease", Mode: core.Async, NumParams: model.NumParams(),
		Concurrency: 4, AggregationGoal: 1, Capability: "lm", InitParams: init,
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}

	resp, err := net.Call("test", "sel", "checkin", server.CheckinRequest{
		ClientID: 1, Capabilities: []string{"lm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := resp.(server.CheckinResponse)
	if !cr.Accepted {
		t.Fatalf("checkin rejected: %s", cr.Reason)
	}

	download := func() []float32 {
		t.Helper()
		resp, err := net.Call("test", "sel", "route", server.RouteRequest{
			TaskID: "lease", Method: "download",
			Payload: server.DownloadRequest{TaskID: "lease", SessionID: cr.SessionID},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp.(server.DownloadResponse).Params
	}
	params := download()

	// The download must be caller-owned memory, not an alias of anything
	// the aggregator serves: mutate it, and neither the next download nor
	// task-info may see the change.
	for i := range params {
		params[i] = -12345
	}
	for name, got := range map[string][]float32{"download": download(), "task-info": taskInfoParams(t, net)} {
		for i := range got {
			if got[i] != init[i] {
				t.Fatalf("%s served a corrupted model at %d: got %v, want %v — the caller's copy aliases the served one", name, i, got[i], init[i])
			}
		}
	}
}

func taskInfoParams(t *testing.T, net *transport.Network) []float32 {
	t.Helper()
	resp, err := net.Call("test", "agg", "task-info", "lease")
	if err != nil {
		t.Fatal(err)
	}
	return resp.(server.TaskInfo).Params
}
